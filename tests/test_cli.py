import csv
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import crosskv.cli
from crosskv.checkpoint import save_checkpoint
from crosskv.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, EXIT_RUNTIME, main
from crosskv.model import ModelConfig, build_model
from crosskv.report import code_version
from crosskv.training import TrainingDivergedError

TINY_MODEL = [
    "--layers", "2", "--d-model", "16", "--query-heads", "2", "--kv-heads", "2",
    "--vocab", "12", "--max-seq", "32",
]


def run(argv):
    return main(argv)


class TestVerifyCommand:
    def test_suite_dispatch_exits_zero(self, tmp_path, capsys):
        assert run(["verify", "--suite", "rope", "--seed", "1", "--output-dir", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] rope.decomposition_identity" in out

    def test_unknown_suite_is_config_error(self, tmp_path, capsys):
        assert run(["verify", "--suite", "nope", "--seed", "1", "--output-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_seed_is_required(self, tmp_path):
        assert run(["verify", "--suite", "rope", "--output-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_writes_manifest_and_one_row_per_invariant(self, tmp_path):
        args = ["verify", "--suite", "rope", "--seed", "1", "--output-dir", str(tmp_path), "--format", "json"]
        assert run(args) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["command"], manifest["config"], manifest["seed"]) == ("verify", {"suites": ["rope"]}, 1)
        rows = list(csv.DictReader((tmp_path / "verify.csv").read_text().splitlines()))
        assert len(rows) == 6 and set(rows[0]) == {"suite", "name", "passed", "detail"}
        assert rows[0]["suite"] == "rope" and rows[0]["name"] == "decomposition_identity"
        assert all(row["passed"] == "True" for row in rows)
        assert [r["name"] for r in json.loads((tmp_path / "verify.json").read_text())] == [r["name"] for r in rows]

    def test_repeated_suite_runs_once(self, tmp_path, capsys, monkeypatch):
        real, asked = crosskv.cli.run_suites, []

        def spy(names):
            asked.append(names)
            return real(names)

        monkeypatch.setattr(crosskv.cli, "run_suites", spy)
        args = ["verify", "--seed", "1", "--suite", "costmodel", "--suite", "rope,costmodel,rope",
                "--output-dir", str(tmp_path)]
        assert run(args) == EXIT_OK
        assert asked == [["costmodel", "rope"]]
        assert "verify: 9 invariants passed" in capsys.readouterr().out
        assert json.loads((tmp_path / "manifest.json").read_text())["config"] == {"suites": ["costmodel", "rope"]}
        rows = list(csv.DictReader((tmp_path / "verify.csv").read_text().splitlines()))
        assert [r["suite"] for r in rows] == ["costmodel"] * 3 + ["rope"] * 6

    def test_violation_exits_three_naming_it_and_still_writes(self, tmp_path, monkeypatch, capsys):
        real = crosskv.cli.run_suites

        def one_failed(names):
            results = real(names)
            results[1] = dataclasses.replace(results[1], passed=False)
            return results

        monkeypatch.setattr(crosskv.cli, "run_suites", one_failed)
        assert run(["verify", "--suite", "rope", "--seed", "1", "--output-dir", str(tmp_path)]) == EXIT_INVARIANT
        assert "FAILED invariant rope.symmetric_weights_shift_invariant" in capsys.readouterr().err
        rows = list(csv.DictReader((tmp_path / "verify.csv").read_text().splitlines()))
        assert [row["passed"] for row in rows[:3]] == ["True", "False", "True"]
        assert (tmp_path / "manifest.json").exists()


class TestTrainCommand:
    def test_deterministic_reports_byte_identical(self, tmp_path, capsys):
        args = ["train", "--strategy", "FusedKV-Lite", "--task", "copy", "--seed", "7",
                "--steps", "8", "--batch-size", "2", "--prompt-len", "4"] + TINY_MODEL
        assert run(args + ["--output-dir", str(tmp_path / "a")]) == EXIT_OK
        assert run(args + ["--output-dir", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "losses.csv").read_bytes()
        b = (tmp_path / "b" / "losses.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "grad_norms.csv").read_bytes() == (tmp_path / "b" / "grad_norms.csv").read_bytes()

    def test_manifest_reproduces_config(self, tmp_path):
        args = ["train", "--strategy", "YOCO", "--seed", "3", "--steps", "2",
                "--batch-size", "2", "--prompt-len", "4",
                "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["strategy"] == "YOCO"
        assert manifest["config"]["layers"] == 2
        assert "code_version" in manifest

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_code_version_ignores_the_working_directory(self, tmp_path, monkeypatch):
        def git(*argv):
            return subprocess.run(["git", *argv], cwd=tmp_path, capture_output=True, text=True, check=True).stdout

        git("init", "-q")
        git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "--allow-empty", "-m", "other")
        other = git("rev-parse", "HEAD").strip()
        monkeypatch.chdir(tmp_path)
        version = code_version()
        assert version and not other.startswith(version.removesuffix("-dirty"))

    def test_json_mirror(self, tmp_path):
        args = ["train", "--seed", "1", "--steps", "2", "--batch-size", "2",
                "--prompt-len", "4", "--format", "json",
                "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        rows = json.loads((tmp_path / "losses.json").read_text())
        assert len(rows) == 2 and "loss" in rows[0]

    def test_checkpoint_written(self, tmp_path):
        args = ["train", "--strategy", "FusedKV", "--seed", "1", "--steps", "2",
                "--batch-size", "2", "--prompt-len", "4", "--save-checkpoint",
                "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        assert (tmp_path / "model.ckpt").stat().st_size > 0

    def test_bad_strategy_is_config_error(self, tmp_path, capsys):
        args = ["train", "--strategy", "bogus", "--seed", "1", "--output-dir", str(tmp_path)]
        assert run(args) == EXIT_CONFIG

    def test_divergence_exits_two_before_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["train", "--seed", "1", "--learning-rate", "1e6", "--init-std", "0.5",
                "--output-dir", str(out)] + TINY_MODEL
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # an overflow is the named error, not a warning
            assert run(args) == EXIT_RUNTIME
        assert "diverged at step" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_file_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("strategy = YOCO\nlayers = 2\nd-model = 16\nquery-heads = 2\n"
                       "kv-heads = 2\nvocab = 12\nmax-seq = 32\n")
        out1 = tmp_path / "r1"
        assert run(["train", "--config", str(cfg), "--seed", "2", "--steps", "2",
                    "--batch-size", "2", "--prompt-len", "4", "--output-dir", str(out1)]) == EXIT_OK
        m1 = json.loads((out1 / "manifest.json").read_text())
        assert m1["config"]["strategy"] == "YOCO"
        out2 = tmp_path / "r2"
        assert run(["train", "--config", str(cfg), "--strategy", "CLA", "--seed", "2",
                    "--steps", "2", "--batch-size", "2", "--prompt-len", "4",
                    "--output-dir", str(out2)]) == EXIT_OK
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m2["config"]["strategy"] == "CLA"  # flag beats file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("warp-speed = 9\n")
        assert run(["train", "--config", str(cfg), "--seed", "1"]) == EXIT_CONFIG

    def test_middle_from_file_matches_flag(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("strategy = FusedKV\nmiddle = 3\n")
        four_layers = ["--layers", "4", "--d-model", "16", "--query-heads", "2", "--kv-heads", "2",
                       "--vocab", "12", "--max-seq", "32"]
        assert run(["heatmap", "--config", str(cfg), "--seed", "5",
                    "--output-dir", str(tmp_path / "file")] + four_layers) == EXIT_OK
        assert run(["heatmap", "--strategy", "FusedKV", "--middle", "3", "--seed", "5",
                    "--output-dir", str(tmp_path / "flag")] + four_layers) == EXIT_OK
        from_file = (tmp_path / "file" / "fusion_weights.csv").read_text()
        assert from_file == (tmp_path / "flag" / "fusion_weights.csv").read_text()
        middle = json.loads((tmp_path / "file" / "manifest.json").read_text())["config"]["middle"]
        assert middle == 3 and type(middle) is int

    def test_wrong_value_type_names_flag(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("layers = two\n")
        assert run(["heatmap", "--config", str(cfg), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "--layers" in err

    @pytest.mark.parametrize("command", ["cost", "verify"])
    def test_commands_without_model_flags_reject_config(self, command, tmp_path, capsys):
        # only the commands with model flags read a config file
        argv = [command, "--config", str(tmp_path / "missing.cfg"), "--output-dir", str(tmp_path)]
        assert run(argv + (["--seed", "1"] if command == "verify" else [])) == EXIT_CONFIG
        assert "--config" in capsys.readouterr().err

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSSKV_OUTPUT_DIR", str(tmp_path / "envdir"))
        assert run(["heatmap", "--strategy", "DenseFusion", "--seed", "1"] + TINY_MODEL) == EXIT_OK
        assert (tmp_path / "envdir" / "fusion_weights.csv").exists()


class TestCostCommand:
    def test_range_and_ratio_columns(self, tmp_path):
        args = ["cost", "--methods", "MHA,FusedKV", "--S", "2048..8192",
                "--output-dir", str(tmp_path)]
        assert run(args) == EXIT_OK
        lines = (tmp_path / "costs.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "ttft_vs_vanilla" in header and "tpot_vs_vanilla" in header
        assert len(lines) == 1 + 2 * 3  # 2 methods x {2048, 4096, 8192}
        mem_idx = header.index("cache_mem_vs_vanilla")
        for line in lines[1:]:
            cells = line.split(",")
            if cells[0] == "FusedKV":
                assert float(cells[mem_idx]) == 0.5

    def test_device_file(self, tmp_path):
        dev = tmp_path / "dev.profile"
        dev.write_text("label = mybox\npeak_flops = 1e14\nbandwidth = 1e12\n")
        args = ["cost", "--methods", "MHA", "--S", "1024", "--device-file", str(dev),
                "--output-dir", str(tmp_path)]
        assert run(args) == EXIT_OK
        assert "mybox" in (tmp_path / "costs.csv").read_text()

    def test_malformed_device_file_names_the_line(self, tmp_path, capsys):
        dev = tmp_path / "dev.profile"
        dev.write_text("# box\nlabel = mybox\npeak_flops 1e14\n")
        args = ["cost", "--device-file", str(dev), "--output-dir", str(tmp_path / "out")]
        assert run(args) == EXIT_CONFIG
        assert f"{dev}:3: expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_weight_bytes_writes_nothing(self, tmp_path, value, capsys):
        args = ["cost", "--S", "1024", f"--weight-bytes={value}", "--output-dir", str(tmp_path / "out")]
        assert run(args) == EXIT_CONFIG
        assert "weight_bytes must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out" / "costs.csv").exists()

    @pytest.mark.parametrize("line", ["peak_flops = nan", "peak_flops = inf", "bandwidth = nan", "bandwidth = 0"])
    def test_device_file_with_a_bad_rate_writes_nothing(self, tmp_path, line, capsys):
        dev = tmp_path / "dev.profile"
        dev.write_text(f"label = mybox\npeak_flops = 1e14\nbandwidth = 1e12\n{line}\n")
        args = ["cost", "--S", "1024", "--device-file", str(dev), "--output-dir", str(tmp_path / "out")]
        assert run(args) == EXIT_CONFIG
        assert f"device {line.split()[0]} must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "out" / "costs.csv").exists()

    def test_unknown_device_preset(self, tmp_path):
        assert run(["cost", "--device", "warp-core", "--output-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_manifest_records_each_device_and_its_rates(self, tmp_path):
        dev = tmp_path / "dev.profile"
        dev.write_text("label = mybox\npeak_flops = 1e14\nbandwidth = 1e12\n")
        args = ["cost", "--methods", "MHA,FusedKV", "--S", "1024", "--device", "compute-heavy",
                "--device-file", str(dev), "--output-dir", str(tmp_path / "out")]
        assert run(args) == EXIT_OK
        devices = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["devices"]
        assert devices == [
            {"label": "compute-heavy", "peak_flops": 1.0e12, "bandwidth": 1.0e13},
            {"label": "mybox", "peak_flops": 1e14, "bandwidth": 1e12},
        ]
        assert "compute-heavy" in (tmp_path / "out" / "costs.csv").read_text()


class TestHeatmapCommand:
    def test_dense_fusion_table(self, tmp_path):
        args = ["heatmap", "--strategy", "DenseFusion", "--seed", "5",
                "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        text = (tmp_path / "fusion_weights.csv").read_text()
        assert text.startswith("kind,target,source,weight")
        assert ",2,1," in text  # target layer 2, source layer 1

    def test_direct_strategy_is_config_error(self, tmp_path):
        args = ["heatmap", "--strategy", "YOCO", "--seed", "5",
                "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_CONFIG

    def test_checkpoint_restores_weights(self, tmp_path):
        train_args = ["train", "--strategy", "DenseFusion", "--seed", "9", "--steps", "4",
                      "--batch-size", "2", "--prompt-len", "4", "--save-checkpoint",
                      "--output-dir", str(tmp_path / "t")] + TINY_MODEL
        assert run(train_args) == EXIT_OK
        heat_args = ["heatmap", "--strategy", "DenseFusion", "--seed", "0",
                     "--checkpoint", str(tmp_path / "t" / "model.ckpt"),
                     "--output-dir", str(tmp_path / "h")] + TINY_MODEL
        assert run(heat_args) == EXIT_OK
        trained = (tmp_path / "t" / "fusion_weights.csv").read_text()
        restored = (tmp_path / "h" / "fusion_weights.csv").read_text()
        assert trained == restored  # trained snapshot == restored snapshot

    def test_non_finite_checkpoint_exits_one(self, tmp_path, capsys):
        cfg = ModelConfig(n_layers=2, d_model=16, n_query_heads=2, n_kv_heads=2, vocab_size=12, max_seq_len=32,
                          strategy="DenseFusion")
        state = build_model(cfg, seed=0).state_dict()
        state["fusion.key.2.1"] = np.full_like(state["fusion.key.2.1"], np.nan)
        save_checkpoint(state, tmp_path / "bad.ckpt")
        out = tmp_path / "h"
        args = ["heatmap", "--strategy", "DenseFusion", "--checkpoint", str(tmp_path / "bad.ckpt"),
                "--output-dir", str(out)] + TINY_MODEL
        assert run(args) == EXIT_CONFIG
        assert "'fusion.key.2.1': checkpoint holds non-finite values" in capsys.readouterr().err
        assert not out.exists()


class TestDecodeBench:
    def test_cache_columns(self, tmp_path):
        args = ["decode-bench", "--strategies", "Vanilla,YOCO,FusedKV,FusedKV-Lite",
                "--seed", "2", "--prompt-len", "8", "--new-tokens", "4",
                "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        lines = (tmp_path / "decode_bench.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        elem_idx = header.index("peak_cache_elements")
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        vanilla = int(rows["Vanilla"][elem_idx])
        for s in ("YOCO", "FusedKV", "FusedKV-Lite"):
            assert int(rows[s][elem_idx]) * 2 == vanilla
        dev_idx = header.index("incremental_vs_full_max_dev")
        assert all(float(r[dev_idx]) < 1e-10 for r in rows.values())

    def test_rows_use_canonical_names(self, tmp_path, capsys):
        args = ["decode-bench", "--strategies", "mha,yoco", "--seed", "2", "--prompt-len", "4",
                "--new-tokens", "2", "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        lines = (tmp_path / "decode_bench.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines] == ["strategy", "Vanilla", "YOCO"]
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if line.startswith("decode ")]
        assert printed == ["decode Vanilla", "decode YOCO"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["strategies"] == ["mha", "yoco"]  # as typed

    def test_bad_later_strategy_builds_no_model(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(crosskv.cli, "build_model", lambda *a, **k: built.append(a))
        args = ["decode-bench", "--strategies", "Vanilla,bogus", "--seed", "2", "--prompt-len", "4",
                "--new-tokens", "2", "--output-dir", str(tmp_path / "out")] + TINY_MODEL
        assert run(args) == EXIT_CONFIG
        assert built == [] and not (tmp_path / "out").exists()

    def test_manifest_records_host(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        args = ["decode-bench", "--strategies", "Vanilla,YOCO", "--seed", "2", "--prompt-len", "4",
                "--new-tokens", "2", "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        host = json.loads((tmp_path / "manifest.json").read_text())["host"]
        assert host["python"] == platform.python_version()
        assert host["numpy"] == np.__version__
        assert set(host["blas"]) == {"name", "version"}
        assert host["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert host["threads"]["MKL_NUM_THREADS"] is None
        assert "OMP_NUM_THREADS" in host["threads"]
        assert host["cpu_count"] == os.cpu_count()
        assert host["platform"] == platform.platform()


class TestCompareCommand:
    def test_single_strategy_is_usage_error(self, tmp_path):
        args = ["compare", "--strategies", "Vanilla", "--seed", "1",
                "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_CONFIG

    def test_bad_later_strategy_trains_nothing(self, tmp_path):
        args = ["compare", "--strategies", "Vanilla,bogus", "--seed", "1", "--steps", "2",
                "--batch-size", "2", "--prompt-len", "4", "--output-dir", str(tmp_path / "out")] + TINY_MODEL
        assert run(args) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_merged_report_and_cache_column(self, tmp_path):
        args = ["compare", "--strategies", "Vanilla,YOCO,FusedKV,FusedKV-Lite",
                "--task", "copy", "--steps", "3", "--seed", "4", "--batch-size", "2",
                "--prompt-len", "4", "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        with open(tmp_path / "compare_summary.csv") as fh:
            rows = {row["strategy"]: row for row in csv.DictReader(fh)}
        vanilla = int(rows["Vanilla"]["peak_cache_elements"])
        for s in ("YOCO", "FusedKV", "FusedKV-Lite"):
            assert int(rows[s]["peak_cache_elements"]) * 2 == vanilla
        assert all("not gated" in r["note"] for r in rows.values())
        losses = (tmp_path / "compare_losses.csv").read_text().splitlines()
        assert losses[0] == "step,Vanilla,YOCO,FusedKV,FusedKV-Lite"
        assert len(losses) == 4  # header + 3 steps

    def test_artifacts_use_canonical_names(self, tmp_path):
        args = ["compare", "--strategies", "mha,yoco", "--steps", "2", "--seed", "4", "--batch-size", "2",
                "--prompt-len", "4", "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        assert (tmp_path / "Vanilla_losses.csv").exists() and (tmp_path / "YOCO_losses.csv").exists()
        assert not list(tmp_path.glob("mha_*")) and not list(tmp_path.glob("yoco_*"))
        assert (tmp_path / "compare_losses.csv").read_text().splitlines()[0] == "step,Vanilla,YOCO"
        with open(tmp_path / "compare_summary.csv") as fh:
            assert [row["strategy"] for row in csv.DictReader(fh)] == ["Vanilla", "YOCO"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["strategies"] == ["mha", "yoco"]  # as typed

    def test_second_strategy_diverging_keeps_the_first(self, tmp_path, monkeypatch, capsys):
        real, calls = crosskv.cli.train, []

        def diverge_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise TrainingDivergedError(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(crosskv.cli, "train", diverge_second)
        args = ["compare", "--strategies", "Vanilla,YOCO", "--steps", "2", "--seed", "4", "--batch-size", "2",
                "--prompt-len", "4", "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_RUNTIME
        assert "YOCO diverged at step 1" in capsys.readouterr().err
        assert (tmp_path / "Vanilla_losses.csv").exists() and not (tmp_path / "YOCO_losses.csv").exists()
        with open(tmp_path / "compare_summary.csv") as fh:
            assert [row["strategy"] for row in csv.DictReader(fh)] == ["Vanilla"]
        assert (tmp_path / "compare_losses.csv").read_text().splitlines()[0] == "step,Vanilla,YOCO"


TINY_CONFIG = {
    "strategy": "YOCO", "layers": 2, "d_model": 16, "query_heads": 2, "kv_heads": 2, "vocab": 12,
    "max_seq": 32, "middle": None, "init_scheme": "normal", "init_std": 0.02, "rope_base": 10000.0,
    "precision": "double",
}
TRAIN_CONFIG = {"task": "copy", "steps": 2, "batch_size": 2, "learning_rate": 0.003, "prompt_len": 4}


class TestManifestConfig:
    """The manifest's config block, key for key and type for type."""

    def _config(self, directory):
        config = json.loads((directory / "manifest.json").read_text())["config"]
        return json.dumps(config, sort_keys=True)

    def test_train(self, tmp_path):
        args = ["train", "--strategy", "YOCO", "--seed", "3", "--steps", "2", "--batch-size", "2",
                "--prompt-len", "4", "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        expected = {**TINY_CONFIG, **TRAIN_CONFIG, "eval_interval": 25, "save_checkpoint": False}
        assert self._config(tmp_path) == json.dumps(expected, sort_keys=True)

    def test_compare(self, tmp_path):
        args = ["compare", "--strategies", "Vanilla,YOCO", "--strategy", "YOCO", "--seed", "3",
                "--steps", "2", "--batch-size", "2", "--prompt-len", "4", "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        expected = {**TINY_CONFIG, "strategies": ["Vanilla", "YOCO"], **TRAIN_CONFIG}
        assert self._config(tmp_path) == json.dumps(expected, sort_keys=True)


NEGATIVE_SEED = "argument --seed: expected a nonnegative integer, got -1"


class TestNamedErrors:
    """Bad flag values exit 1 with a configuration error naming the flag."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["cost", "--S", "abc"], "--S"),
            (["cost", "--S", "1024,0"], "--S"),
            (["train", "--seed", "1", "--steps", "0"], "--steps"),
            (["train", "--seed", "1", "--steps", "2", "--eval-interval", "0"], "--eval-interval"),
            (["compare", "--strategies", "Vanilla,YOCO", "--seed", "1", "--batch-size", "0"], "--batch-size"),
            (["compare", "--strategies", "Vanilla,YOCO,mha", "--seed", "1"], "--strategies names Vanilla twice"),
            (["decode-bench", "--prompt-len", "0"], "--prompt-len"),
            (["decode-bench", "--strategies", ","], "--strategies"),
            (["decode-bench", "--new-tokens", "-1"], "--new-tokens"),
            (["decode-bench", "--strategies", "mha,Vanilla"], "--strategies names Vanilla twice"),
            (["train", "--seed", "1", "--steps", "abc"], "--steps"),
            # numpy's generators refuse a negative seed; compare would have written its manifest first
            (["train", "--seed", "-1", "--steps", "1"], NEGATIVE_SEED),
            (["heatmap", "--seed", "-1"], NEGATIVE_SEED),
            (["decode-bench", "--seed", "-1"], NEGATIVE_SEED),
            (["compare", "--strategies", "mha,yoco", "--seed", "-1", "--steps", "1"], NEGATIVE_SEED),
        ],
        ids=["cost-S-not-int", "cost-S-zero", "train-steps", "train-eval-interval", "compare-batch-size",
             "compare-repeated-strategy", "decode-prompt-len", "decode-no-strategies", "decode-new-tokens",
             "decode-repeated-strategy", "train-steps-not-int", "train-negative-seed", "heatmap-negative-seed",
             "decode-negative-seed", "compare-negative-seed"],
    )
    def test_exits_one_naming_the_flag(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        model = [] if argv[0] == "cost" else TINY_MODEL
        assert run(argv + model + ["--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("crosskv: configuration error: ") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--strategy", "YOCO", "--layers", "3", "--seed", "1"],
            ["heatmap", "--strategy", "value9key1"],
            ["heatmap", "--strategy", "DenseFusion", "--init-scheme", "equivalent"],
        ],
        ids=["train-odd-layers", "heatmap-ablation-source", "heatmap-equivalent-dense"],
    )
    def test_plan_the_model_cannot_build_exits_one(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv + ["--output-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("crosskv: configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--seed", "1", "--rope-base", "0.5"], "rope base"),
            (["heatmap", "--strategy", "FusedKV", "--rope-base", "1"], "rope base"),
            (["decode-bench", "--rope-base", "0.9"], "rope base"),
            (["train", "--seed", "1", "--rope-base", "inf"], "rope base"),
            (["train", "--seed", "1", "--init-std", "nan"], "init_std"),
            (["train", "--seed", "1", "--init-std", "inf"], "init_std"),
            (["train", "--seed", "1", "--task", "char-corpus", "--vocab", "8"], "vocab"),
            (["compare", "--strategies", "YOCO,FusedKV", "--seed", "1", "--task", "induction-heads",
              "--vocab", "4"], "vocab"),
            (["train", "--seed", "1", "--learning-rate", "nan"], "learning rate"),
            (["train", "--seed", "1", "--learning-rate", "-1"], "learning rate"),
            (["train", "--seed", "1", "--prompt-len", "40"], "copy task needs max sequence >= 81, got 32"),
            (["compare", "--strategies", "Vanilla,YOCO", "--seed", "1", "--task", "char-corpus", "--vocab", "64"],
             "char-corpus task needs max sequence >= 48, got 32"),
            # the copy task fits in 18 tokens; each summary row's decode needs min(16, vocab) + 8 = 20
            (["compare", "--strategies", "Vanilla,YOCO", "--seed", "1", "--steps", "1", "--batch-size", "1",
              "--prompt-len", "4", "--max-seq", "18"], "--max-seq 18"),
            (["decode-bench", "--prompt-len", "30", "--new-tokens", "16"], "prompt 30 + new tokens 16 exceeds max sequence 32"),
        ],
        ids=["train-rope-base", "heatmap-rope-base", "decode-rope-base", "train-rope-base-inf", "train-init-std-nan",
             "train-init-std-inf", "train-corpus-vocab", "compare-induction-vocab", "train-lr-nan",
             "train-lr-negative", "train-copy-too-long", "compare-corpus-too-long",
             "compare-summary-decode-too-long", "decode-past-max-seq"],
    )
    def test_bad_model_or_training_input_exits_one_before_artifacts(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(argv[:1] + TINY_MODEL + argv[1:] + ["--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("crosskv: configuration error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cost", "--query-heads", "2", "--kv-heads", "4"], "query heads must be >= kv heads"),
            (["train", "--seed", "1", "--config", "{dir}/missing.cfg"], "cannot read config file"),
            (["train", "--seed", "1", "--config", "{dir}/no_equals.cfg"], "no_equals.cfg:2: expected key=value"),
        ],
        ids=["cost-more-kv-than-query-heads", "config-unreadable", "config-line-without-equals"],
    )
    def test_bad_config_file_or_cost_shape_exits_one_before_artifacts(self, argv, message, tmp_path, capsys):
        (tmp_path / "no_equals.cfg").write_text("# model\nlayers 2\n")
        out = tmp_path / "out"
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert run(argv + ["--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("crosskv: configuration error: ") and message in err
        assert not out.exists()


class TestBoundaries:
    """A flag value that names nothing, an output path that cannot be a
    directory, and a non-finite forward each end in one named line."""

    @pytest.mark.parametrize("value", ["", ","])
    def test_suite_naming_no_suite_exits_one_running_nothing(self, value, tmp_path, monkeypatch, capsys):
        def never(names):
            raise AssertionError(f"run_suites({names!r}) was called")

        monkeypatch.setattr(crosskv.cli, "run_suites", never)
        out = tmp_path / "out"
        assert run(["verify", "--suite", value, "--seed", "1", "--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("crosskv: configuration error: ") and "--suite" in err
        assert not out.exists()

    def test_empty_output_dir_flag_exits_one_writing_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["cost", "--output-dir", ""]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("crosskv: configuration error: ") and "--output-dir" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_empty_output_dir_variable_exits_one_writing_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(crosskv.cli.OUTPUT_DIR_ENV, "")
        assert run(["cost"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("crosskv: configuration error: ") and crosskv.cli.OUTPUT_DIR_ENV in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--seed", "1", "--steps", "1000000"] + TINY_MODEL,
            ["verify", "--suite", "rope", "--seed", "1"],
            ["cost"],
            ["heatmap", "--strategy", "FusedKV"] + TINY_MODEL,
            ["decode-bench"] + TINY_MODEL,
            ["compare", "--strategies", "Vanilla,YOCO", "--seed", "1", "--steps", "1000000"] + TINY_MODEL,
        ],
        ids=["train", "verify", "cost", "heatmap", "decode-bench", "compare"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_output_dir_that_is_not_a_directory_exits_one_before_any_work(self, argv, below, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file\n")
        out = blocker / "sub" if below else blocker
        started = time.perf_counter()
        assert run(argv + ["--output-dir", str(out)]) == EXIT_CONFIG
        assert time.perf_counter() - started < 5  # a million training steps would take hours
        err = capsys.readouterr().err
        assert err.startswith("crosskv: configuration error: ") and str(out) in err
        assert blocker.read_text() == "a file\n" and sorted(tmp_path.iterdir()) == [blocker]

    def test_non_finite_forward_exits_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["decode-bench", "--strategies", "Vanilla", "--layers", "2", "--d-model", "8", "--query-heads", "2",
                "--kv-heads", "2", "--init-std", "1e200", "--output-dir", str(out)]
        assert run(argv) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("crosskv: ") and "configuration error" not in err and err.count("\n") == 1
        assert not out.exists()
