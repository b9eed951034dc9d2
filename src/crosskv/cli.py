"""Command-line entry point.

Subcommands: train, verify, cost, heatmap, decode-bench, compare. Options
are long-form kebab-case flags; a plain key=value config file can supply
defaults (flags win). Every run writes a manifest (resolved config, seed,
code version) next to its artifacts; CSV is the primary format with an
optional JSON mirror.

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
    sweep,
)
from .model import ModelConfig, build_model, fusion_weight_heatmap
from .report import write_heatmap, write_manifest, write_rows, write_train_report
from .training import OptimizerParams, TrainingDivergedError, train
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


def _read_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    return values


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer flag values over config-file values over built-in defaults."""
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            raw = file_cfg[key]
            caster = type(default) if default is not None else str
            if caster is bool:
                resolved[key] = raw.lower() in ("1", "true", "yes")
            else:
                try:
                    resolved[key] = caster(raw)
                except ValueError:
                    raise ConfigError(f"config file value {key}={raw!r} is not a {caster.__name__}")
        else:
            resolved[key] = default
    unknown = set(file_cfg) - set(defaults)
    if unknown:
        raise ConfigError(f"config file has unknown keys: {sorted(unknown)}")
    return resolved


def _output_dir(args) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs"))


_MODEL_DEFAULTS = dict(
    strategy="Vanilla",
    layers=8,
    d_model=64,
    query_heads=8,
    kv_heads=8,
    vocab=64,
    max_seq=128,
    middle=None,
    init_scheme="normal",
    init_std=0.02,
    rope_base=10000.0,
    precision="double",
)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy")
    p.add_argument("--layers", type=int)
    p.add_argument("--d-model", type=int)
    p.add_argument("--query-heads", type=int)
    p.add_argument("--kv-heads", type=int)
    p.add_argument("--vocab", type=int)
    p.add_argument("--max-seq", type=int)
    p.add_argument("--middle", type=int)
    p.add_argument("--init-scheme", choices=("normal", "equivalent"))
    p.add_argument("--init-std", type=float)
    p.add_argument("--rope-base", type=float)
    p.add_argument("--precision", choices=("double", "single"))


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value defaults file; flags win")
    p.add_argument("--output-dir", help=f"artifact directory (default ${OUTPUT_DIR_ENV} or ./runs)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="json adds JSON mirrors of each CSV")


def _model_config(resolved: dict, strategy: str | None = None) -> ModelConfig:
    try:
        return ModelConfig(
            n_layers=resolved["layers"],
            d_model=resolved["d_model"],
            n_query_heads=resolved["query_heads"],
            n_kv_heads=resolved["kv_heads"],
            vocab_size=resolved["vocab"],
            max_seq_len=resolved["max_seq"],
            strategy=strategy or resolved["strategy"],
            middle=resolved["middle"],
            init_scheme=resolved["init_scheme"],
            init_std=resolved["init_std"],
            rope_base=resolved["rope_base"],
            precision=resolved["precision"],
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e))


def _parse_lengths(text: str) -> list[int]:
    """'2048..32768' doubles from start to end; comma lists pass through."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo <= 0 or hi < lo:
            raise ConfigError(f"bad length range {text!r}")
        out = []
        s = lo
        while s <= hi:
            out.append(s)
            s *= 2
        return out
    return [int(tok) for tok in text.split(",") if tok]


def build_parser() -> _Parser:
    parser = _Parser(prog="crosskv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one strategy on a synthetic task")
    _add_common_flags(p_train)
    _add_model_flags(p_train)
    p_train.add_argument("--task", choices=("copy", "induction-heads", "char-corpus"), default="copy")
    p_train.add_argument("--steps", type=int, default=200)
    p_train.add_argument("--seed", type=int, required=True)
    p_train.add_argument("--batch-size", type=int, default=8)
    p_train.add_argument("--learning-rate", type=float, default=3e-3)
    p_train.add_argument("--eval-interval", type=int, default=25)
    p_train.add_argument("--prompt-len", type=int, default=8, help="copy-task prompt length")
    p_train.add_argument("--save-checkpoint", action="store_true")

    p_verify = sub.add_parser("verify", help="run module invariant suites")
    _add_common_flags(p_verify)
    p_verify.add_argument("--suite", action="append", help=f"suite name ({', '.join(SUITES)}); repeatable")
    p_verify.add_argument("--seed", type=int, required=True, help="recorded in the manifest; suites pin their own seeds")

    p_cost = sub.add_parser("cost", help="analytic cost and roofline sweep")
    _add_common_flags(p_cost)
    p_cost.add_argument("--methods", default="MHA,YOCO,FusedKV-Lite,FusedKV")
    p_cost.add_argument("--S", "--seq-lens", dest="seq_lens", default="1024..32768",
                        help="prefill lengths: 'a..b' doubles from a to b, or a comma list")
    p_cost.add_argument("--layers", type=int, default=24)
    p_cost.add_argument("--head-dim", type=int, default=128)
    p_cost.add_argument("--query-heads", type=int, default=16)
    p_cost.add_argument("--kv-heads", type=int, default=16)
    p_cost.add_argument("--bytes-per-element", type=int, default=2)
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
    p_dec.add_argument("--strategies", help="comma list; defaults to --strategy")
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--prompt-len", type=int, default=32)
    p_dec.add_argument("--new-tokens", type=int, default=16)

    p_cmp = sub.add_parser("compare", help="train several strategies under one seed and merge reports")
    _add_common_flags(p_cmp)
    _add_model_flags(p_cmp)
    p_cmp.add_argument("--strategies", required=True, help="comma list, at least two")
    p_cmp.add_argument("--task", choices=("copy", "induction-heads", "char-corpus"), default="copy")
    p_cmp.add_argument("--steps", type=int, default=200)
    p_cmp.add_argument("--seed", type=int, required=True)
    p_cmp.add_argument("--batch-size", type=int, default=8)
    p_cmp.add_argument("--learning-rate", type=float, default=3e-3)
    p_cmp.add_argument("--prompt-len", type=int, default=8)
    return parser


def _cmd_train(args) -> int:
    resolved = _resolve(args, _MODEL_DEFAULTS)
    cfg = _model_config(resolved)
    outdir = _output_dir(args)
    mirror = args.format == "json"
    model = build_model(cfg, seed=args.seed)
    opt = OptimizerParams(learning_rate=args.learning_rate)
    report = train(
        model,
        args.task,
        args.steps,
        opt=opt,
        seed=args.seed,
        batch_size=args.batch_size,
        eval_interval=args.eval_interval,
        task_options={"prompt_len": args.prompt_len},
    )
    write_manifest(
        outdir,
        "train",
        {**resolved, "task": args.task, "steps": args.steps, "batch_size": args.batch_size,
         "learning_rate": args.learning_rate, "prompt_len": args.prompt_len},
        args.seed,
    )
    write_train_report(outdir, report, mirror_json=mirror)
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
    methods = [m for m in args.methods.split(",") if m]
    lengths = _parse_lengths(args.seq_lens)
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
    specs = [
        WorkloadSpec(args.layers, s, args.head_dim, args.query_heads, args.kv_heads, args.bytes_per_element)
        for s in lengths
    ]
    try:
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
    resolved = _resolve(args, _MODEL_DEFAULTS)
    cfg = _model_config(resolved)
    model = build_model(cfg, seed=args.seed)
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
    write_manifest(outdir, "heatmap", {**resolved, "checkpoint": args.checkpoint}, args.seed)
    write_heatmap(outdir, "fusion_weights", hm, mirror_json=args.format == "json")
    print(f"heatmap: {len(hm.targets)} targets x ({len(hm.key_sources)} key / {len(hm.value_sources)} value sources) -> {outdir}")
    return EXIT_OK


def _cmd_decode_bench(args) -> int:
    resolved = _resolve(args, _MODEL_DEFAULTS)
    strategies = [s for s in (args.strategies or resolved["strategy"]).split(",") if s]
    rng = np.random.default_rng(args.seed)
    rows = []
    for strategy in strategies:
        cfg = _model_config(resolved, strategy=strategy)
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
    write_manifest(outdir, "decode-bench", {**resolved, "strategies": strategies,
                                            "prompt_len": args.prompt_len, "new_tokens": args.new_tokens}, args.seed)
    write_rows(
        outdir,
        "decode_bench",
        ("strategy", "prompt_len", "new_tokens", "peak_cache_layers", "peak_cache_elements",
         "cache_length", "incremental_vs_full_max_dev"),
        rows,
        mirror_json=args.format == "json",
    )
    for row in rows:
        print(
            f"decode {row['strategy']}: {row['peak_cache_layers']} cached layers, "
            f"{row['peak_cache_elements']} elements, max dev {row['incremental_vs_full_max_dev']}"
        )
    return EXIT_OK


def _cmd_compare(args) -> int:
    resolved = _resolve(args, _MODEL_DEFAULTS)
    strategies = [s for s in args.strategies.split(",") if s]
    if len(strategies) < 2:
        raise ConfigError("compare needs at least two strategies")
    outdir = _output_dir(args)
    mirror = args.format == "json"
    write_manifest(
        outdir,
        "compare",
        {**resolved, "strategies": strategies, "task": args.task, "steps": args.steps,
         "batch_size": args.batch_size, "learning_rate": args.learning_rate,
         "prompt_len": args.prompt_len},
        args.seed,
    )
    summaries = []
    losses: dict[str, list[float]] = {}
    for strategy in strategies:
        cfg = _model_config(resolved, strategy=strategy)
        model = build_model(cfg, seed=args.seed)
        try:
            report = train(
                model,
                args.task,
                args.steps,
                opt=OptimizerParams(learning_rate=args.learning_rate),
                seed=args.seed,
                batch_size=args.batch_size,
                task_options={"prompt_len": args.prompt_len},
            )
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
        write_rows(
            outdir,
            "compare_summary",
            ("strategy", "initial_loss", "final_loss", "peak_cache_elements", "peak_cache_layers", "note"),
            summaries,
            mirror_json=mirror,
        )


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
        args = parser.parse_args(argv)
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
