"""Command-line entry point.

Subcommands: train, verify, cost, heatmap, decode-bench, compare. Options
are long-form kebab-case flags; model flags take `ModelConfig`'s defaults
and checks. For the commands with model flags, `--config FILE` holds
`key = value` lines naming model flags, parsed as flags placed ahead of
the command line's, so flags win. Every run writes a manifest (resolved
config, seed, code version) next to its artifacts; CSV is the primary
format with an optional JSON mirror.

Exit codes: 0 success, 1 configuration error, 2 runtime failure or
training divergence, 3 invariant violation in `verify`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .costmodel import (
    DEVICE_PRESETS,
    SWEEP_COLUMNS,
    WorkloadSpec,
    load_device_profile,
    read_key_values,
    sweep,
)
from .model import ModelConfig, build_model, fusion_weight_heatmap
from .report import write_heatmap, write_manifest, write_rows, write_train_report
from .training import TASK_NAMES, OptimizerParams, TrainingDivergedError, train
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_INVARIANT = 3

OUTPUT_DIR_ENV = "CROSSKV_OUTPUT_DIR"


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _names(text: str) -> list[str]:
    names = [name for name in text.split(",") if name]
    if not names:
        raise argparse.ArgumentTypeError(f"expected a comma list of names, got {text!r}")
    return names


def _lengths(text: str) -> list[int]:
    """'2048..32768' doubles from start to end; comma lists pass through."""
    try:
        if ".." in text:
            lo, hi = (int(t) for t in text.split("..", 1))
            lengths = []
            while 0 < lo <= hi:
                lengths.append(lo)
                lo *= 2
        else:
            lengths = [int(t) for t in text.split(",") if t]
    except ValueError:
        lengths = []
    if not lengths or min(lengths) < 1:
        raise argparse.ArgumentTypeError(f"expected positive lengths as 'a..b' or a comma list, got {text!r}")
    return lengths


# Model flag -> (ModelConfig field, value type). ModelConfig supplies the
# defaults and checks the values; the keys name the manifest's entries.
_MODEL_FLAGS = {
    "strategy": ("strategy", str),
    "layers": ("n_layers", int),
    "d_model": ("d_model", int),
    "query_heads": ("n_query_heads", int),
    "kv_heads": ("n_kv_heads", int),
    "vocab": ("vocab_size", int),
    "max_seq": ("max_seq_len", int),
    "middle": ("middle", int),
    "init_scheme": ("init_scheme", str),
    "init_std": ("init_std", float),
    "rope_base": ("rope_base", float),
    "precision": ("precision", str),
}


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    defaults = ModelConfig()
    for key, (field, kind) in _MODEL_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind, default=getattr(defaults, field))


def _model_settings(args) -> dict:
    return {key: getattr(args, key) for key in _MODEL_FLAGS}


def _model_config(args, strategy: str | None = None) -> ModelConfig:
    fields = {field: getattr(args, key) for key, (field, _) in _MODEL_FLAGS.items()}
    try:
        return ModelConfig(**{**fields, "strategy": strategy or args.strategy})
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e))


def _config_flags(path: str) -> list[str]:
    """A config file's `key = value` lines as `--key=value` flags."""
    try:
        values = read_key_values(path)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    except ValueError as e:
        raise ConfigError(str(e))
    unknown = sorted(key for key in values if key.replace("-", "_") not in _MODEL_FLAGS)
    if unknown:
        raise ConfigError(f"config file has unknown keys: {unknown}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse the command line. A command with model flags reads its
    --config file's lines as flags placed ahead of the command line's own,
    so the same parser checks them and the command line's flags win."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) and all(hasattr(args, key) for key in _MODEL_FLAGS):
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
    return args


def _output_dir(args) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs"))


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file of model flags; flags win")
    p.add_argument("--output-dir", help=f"artifact directory (default ${OUTPUT_DIR_ENV} or ./runs)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="json adds JSON mirrors of each CSV")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=TASK_NAMES, default="copy")
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--batch-size", type=_positive_int, default=8)
    p.add_argument("--learning-rate", type=float, default=OptimizerParams.learning_rate)
    p.add_argument("--prompt-len", type=_positive_int, default=8, help="copy-task prompt length")


def build_parser() -> _Parser:
    parser = _Parser(prog="crosskv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one strategy on a synthetic task")
    _add_common_flags(p_train)
    _add_model_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--eval-interval", type=_positive_int, default=25)
    p_train.add_argument("--save-checkpoint", action="store_true")

    p_verify = sub.add_parser("verify", help="run module invariant suites")
    _add_common_flags(p_verify)
    p_verify.add_argument("--suite", action="append", help=f"suite name ({', '.join(SUITES)}); repeatable")
    p_verify.add_argument("--seed", type=int, required=True, help="recorded in the manifest; suites pin their own seeds")

    p_cost = sub.add_parser("cost", help="analytic cost and roofline sweep")
    _add_common_flags(p_cost)
    p_cost.add_argument("--methods", type=_names, default="MHA,YOCO,FusedKV-Lite,FusedKV")
    p_cost.add_argument("--S", "--seq-lens", dest="seq_lens", type=_lengths, default="1024..32768",
                        help="prefill lengths: 'a..b' doubles from a to b, or a comma list")
    p_cost.add_argument("--layers", type=_positive_int, default=24)
    p_cost.add_argument("--head-dim", type=_positive_int, default=128)
    p_cost.add_argument("--query-heads", type=_positive_int, default=16)
    p_cost.add_argument("--kv-heads", type=_positive_int, default=16)
    p_cost.add_argument("--bytes-per-element", type=_positive_int, default=2)
    p_cost.add_argument("--device", action="append", help=f"preset name ({', '.join(DEVICE_PRESETS)}); repeatable")
    p_cost.add_argument("--device-file", action="append", help="key=value device profile file; repeatable")
    p_cost.add_argument("--weight-bytes", type=float, default=0.0)

    p_heat = sub.add_parser("heatmap", help="dump fusion weights as a target x source table")
    _add_common_flags(p_heat)
    _add_model_flags(p_heat)
    p_heat.add_argument("--seed", type=int, default=0)
    p_heat.add_argument("--checkpoint", help="restore parameters before dumping")

    p_dec = sub.add_parser("decode-bench", help="greedy decode with cache accounting")
    _add_common_flags(p_dec)
    _add_model_flags(p_dec)
    p_dec.add_argument("--strategies", type=_names, help="comma list; defaults to --strategy")
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--prompt-len", type=_positive_int, default=32)
    p_dec.add_argument("--new-tokens", type=int, default=16)

    p_cmp = sub.add_parser("compare", help="train several strategies under one seed and merge reports")
    _add_common_flags(p_cmp)
    _add_model_flags(p_cmp)
    p_cmp.add_argument("--strategies", type=_names, required=True, help="comma list, at least two")
    _add_train_flags(p_cmp)
    return parser


def _train_model(args, cfg: ModelConfig, **options):
    """Build `cfg`'s model and train it with the shared training flags."""
    model = build_model(cfg, seed=args.seed)
    report = train(
        model,
        args.task,
        args.steps,
        opt=OptimizerParams(learning_rate=args.learning_rate),
        seed=args.seed,
        batch_size=args.batch_size,
        task_options={"prompt_len": args.prompt_len},
        **options,
    )
    return model, report


def _train_settings(args) -> dict:
    return {key: getattr(args, key) for key in ("task", "steps", "batch_size", "learning_rate", "prompt_len")}


def _cmd_train(args) -> int:
    cfg = _model_config(args)
    outdir = _output_dir(args)
    model, report = _train_model(args, cfg, eval_interval=args.eval_interval)
    write_manifest(outdir, "train", {**_model_settings(args), **_train_settings(args)}, args.seed)
    write_train_report(outdir, report, mirror_json=args.format == "json")
    if args.save_checkpoint:
        save_checkpoint(model.state_dict(), outdir / "model.ckpt")
    print(
        f"train strategy={cfg.strategy} task={args.task} steps={args.steps} "
        f"initial_loss={report.losses[0]:.4f} final_loss={report.final_loss:.4f} -> {outdir}"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = []
    for item in args.suite or []:
        names.extend(s for s in item.split(",") if s)
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    results = run_suites(names or None)
    for r in results:
        print(r.line())
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"verify: FAILED invariant {failures[0].suite}.{failures[0].name}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"verify: {len(results)} invariants passed")
    return EXIT_OK


def _cmd_cost(args) -> int:
    methods, lengths = args.methods, args.seq_lens
    devices = []
    for name in args.device or []:
        if name not in DEVICE_PRESETS:
            raise ConfigError(f"unknown device preset {name!r}; known: {', '.join(DEVICE_PRESETS)}")
        devices.append(DEVICE_PRESETS[name])
    for path in args.device_file or []:
        try:
            devices.append(load_device_profile(path))
        except (OSError, ValueError) as e:
            raise ConfigError(f"device file {path}: {e}")
    if not devices:
        devices = [DEVICE_PRESETS["hbm-accelerator"]]
    try:
        specs = [
            WorkloadSpec(args.layers, s, args.head_dim, args.query_heads, args.kv_heads, args.bytes_per_element)
            for s in lengths
        ]
        rows = sweep(methods, specs, devices, args.weight_bytes)
    except ValueError as e:
        raise ConfigError(str(e))
    outdir = _output_dir(args)
    write_manifest(
        outdir,
        "cost",
        {"methods": methods, "seq_lens": lengths, "layers": args.layers, "head_dim": args.head_dim,
         "query_heads": args.query_heads, "kv_heads": args.kv_heads,
         "bytes_per_element": args.bytes_per_element, "weight_bytes": args.weight_bytes,
         "devices": [d.label for d in devices]},
        None,
    )
    write_rows(outdir, "costs", SWEEP_COLUMNS, rows, mirror_json=args.format == "json")
    print(f"cost: {len(rows)} rows ({len(methods)} methods x {len(specs)} lengths x {len(devices)} devices) -> {outdir}")
    return EXIT_OK


def _cmd_heatmap(args) -> int:
    model = build_model(_model_config(args), seed=args.seed)
    if args.checkpoint:
        try:
            model.load_state_dict(load_checkpoint(args.checkpoint))
        except (OSError, KeyError, ValueError) as e:
            raise ConfigError(f"checkpoint {args.checkpoint}: {e}")
    try:
        hm = fusion_weight_heatmap(model)
    except ValueError as e:
        raise ConfigError(str(e))
    outdir = _output_dir(args)
    write_manifest(outdir, "heatmap", {**_model_settings(args), "checkpoint": args.checkpoint}, args.seed)
    write_heatmap(outdir, "fusion_weights", hm, mirror_json=args.format == "json")
    print(f"heatmap: {len(hm.targets)} targets x ({len(hm.key_sources)} key / {len(hm.value_sources)} value sources) -> {outdir}")
    return EXIT_OK


def _cmd_decode_bench(args) -> int:
    strategies = args.strategies or args.strategy.split(",")
    if args.new_tokens < 0:
        raise ConfigError(f"argument --new-tokens: expected a nonnegative integer, got {args.new_tokens}")
    rng = np.random.default_rng(args.seed)
    rows = []
    for strategy in strategies:
        cfg = _model_config(args, strategy=strategy)
        if args.prompt_len + args.new_tokens > cfg.max_seq_len:
            raise ConfigError(
                f"prompt {args.prompt_len} + new tokens {args.new_tokens} exceeds max sequence {cfg.max_seq_len}"
            )
        model = build_model(cfg, seed=args.seed)
        prompt = rng.integers(0, cfg.vocab_size, size=args.prompt_len)
        res = model.decode(prompt, args.new_tokens)
        full = model.forward_logits(res.tokens).numpy()[0]
        dev = float(np.abs(full[: len(res.logits)] - res.logits).max())
        rows.append(
            {
                "strategy": strategy,
                "prompt_len": args.prompt_len,
                "new_tokens": args.new_tokens,
                "peak_cache_layers": res.peak_cache_layers,
                "peak_cache_elements": res.peak_cache_elements,
                "cache_length": res.cache_length,
                "incremental_vs_full_max_dev": repr(dev),
            }
        )
    outdir = _output_dir(args)
    write_manifest(outdir, "decode-bench", {**_model_settings(args), "strategies": strategies,
                                            "prompt_len": args.prompt_len, "new_tokens": args.new_tokens}, args.seed)
    write_rows(outdir, "decode_bench", rows[0], rows, mirror_json=args.format == "json")
    for row in rows:
        print(
            f"decode {row['strategy']}: {row['peak_cache_layers']} cached layers, "
            f"{row['peak_cache_elements']} elements, max dev {row['incremental_vs_full_max_dev']}"
        )
    return EXIT_OK


def _cmd_compare(args) -> int:
    strategies = args.strategies
    if len(strategies) < 2:
        raise ConfigError("compare needs at least two strategies")
    configs = [_model_config(args, strategy=strategy) for strategy in strategies]  # all checked before any run
    outdir = _output_dir(args)
    mirror = args.format == "json"
    write_manifest(outdir, "compare", {**_model_settings(args), "strategies": strategies, **_train_settings(args)},
                   args.seed)
    summaries = []
    losses: dict[str, list[float]] = {}
    for strategy, cfg in zip(strategies, configs):
        try:
            model, report = _train_model(args, cfg)
        except TrainingDivergedError as e:
            # keep the artifacts of the finished members
            print(f"compare: {strategy} diverged at step {e.step}; partial artifacts kept", file=sys.stderr)
            _write_compare_files(outdir, strategies, losses, summaries, mirror)
            return EXIT_RUNTIME
        write_train_report(outdir, report, label=strategy, mirror_json=mirror)
        losses[strategy] = report.losses
        res = model.decode(np.arange(min(16, cfg.vocab_size)) % cfg.vocab_size, 8)
        summaries.append(
            {
                "strategy": strategy,
                "initial_loss": repr(report.losses[0]),
                "final_loss": repr(report.final_loss),
                "peak_cache_elements": res.peak_cache_elements,
                "peak_cache_layers": res.peak_cache_layers,
                "note": "losses reported, not gated",
            }
        )
    _write_compare_files(outdir, strategies, losses, summaries, mirror)
    for s in summaries:
        print(
            f"compare {s['strategy']}: final_loss={float(s['final_loss']):.4f} "
            f"cache_elements={s['peak_cache_elements']} ({s['note']})"
        )
    return EXIT_OK


def _write_compare_files(outdir, strategies, losses, summaries, mirror) -> None:
    if losses:
        steps = max(len(v) for v in losses.values())
        rows = []
        for step in range(steps):
            row = {"step": step}
            for strategy in strategies:
                curve = losses.get(strategy)
                row[strategy] = repr(curve[step]) if curve and step < len(curve) else ""
            rows.append(row)
        write_rows(outdir, "compare_losses", ["step"] + list(strategies), rows, mirror_json=mirror)
    if summaries:
        write_rows(outdir, "compare_summary", summaries[0], summaries, mirror_json=mirror)


_COMMANDS = {
    "train": _cmd_train,
    "verify": _cmd_verify,
    "cost": _cmd_cost,
    "heatmap": _cmd_heatmap,
    "decode-bench": _cmd_decode_bench,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"crosskv: configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergedError as e:
        print(f"crosskv: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
