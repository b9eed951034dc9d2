import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from crosskv.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_OK, main

TINY_MODEL = [
    "--layers", "2", "--d-model", "16", "--query-heads", "2", "--kv-heads", "2",
    "--vocab", "12", "--max-seq", "32",
]


def run(argv):
    return main(argv)


class TestVerifyCommand:
    def test_suite_dispatch_exits_zero(self, capsys):
        assert run(["verify", "--suite", "rope", "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] rope.decomposition_identity" in out

    def test_unknown_suite_is_config_error(self, capsys):
        assert run(["verify", "--suite", "nope", "--seed", "1"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_seed_is_required(self):
        assert run(["verify", "--suite", "rope"]) == EXIT_CONFIG


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

    def test_unknown_device_preset(self, tmp_path):
        assert run(["cost", "--device", "warp-core", "--output-dir", str(tmp_path)]) == EXIT_CONFIG


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
        import csv

        with open(tmp_path / "compare_summary.csv") as fh:
            rows = {row["strategy"]: row for row in csv.DictReader(fh)}
        vanilla = int(rows["Vanilla"]["peak_cache_elements"])
        for s in ("YOCO", "FusedKV", "FusedKV-Lite"):
            assert int(rows[s]["peak_cache_elements"]) * 2 == vanilla
        assert all("not gated" in r["note"] for r in rows.values())
        losses = (tmp_path / "compare_losses.csv").read_text().splitlines()
        assert losses[0] == "step,Vanilla,YOCO,FusedKV,FusedKV-Lite"
        assert len(losses) == 4  # header + 3 steps


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
        assert self._config(tmp_path) == json.dumps({**TINY_CONFIG, **TRAIN_CONFIG}, sort_keys=True)

    def test_compare(self, tmp_path):
        args = ["compare", "--strategies", "Vanilla,YOCO", "--strategy", "YOCO", "--seed", "3",
                "--steps", "2", "--batch-size", "2", "--prompt-len", "4", "--output-dir", str(tmp_path)] + TINY_MODEL
        assert run(args) == EXIT_OK
        expected = {**TINY_CONFIG, "strategies": ["Vanilla", "YOCO"], **TRAIN_CONFIG}
        assert self._config(tmp_path) == json.dumps(expected, sort_keys=True)


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
            (["decode-bench", "--prompt-len", "0"], "--prompt-len"),
            (["decode-bench", "--strategies", ","], "--strategies"),
            (["decode-bench", "--new-tokens", "-1"], "--new-tokens"),
        ],
        ids=["cost-S-not-int", "cost-S-zero", "train-steps", "train-eval-interval", "compare-batch-size",
             "decode-prompt-len", "decode-no-strategies", "decode-new-tokens"],
    )
    def test_exits_one_naming_the_flag(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "out"
        model = [] if argv[0] == "cost" else TINY_MODEL
        assert run(argv + model + ["--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("crosskv: configuration error: ") and flag in err
        assert not out.exists()
