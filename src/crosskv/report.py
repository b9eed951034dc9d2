"""Artifact writing: CSV (primary), optional JSON mirrors, and manifests.

Every artifact directory gets a manifest holding the resolved
configuration, the seed, and a code version string, which together are
enough to reproduce the files exactly, plus the host it ran on (Python,
numpy, BLAS, thread settings, CPUs), which absolute times depend on.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

__all__ = [
    "code_version",
    "write_heatmap",
    "write_manifest",
    "write_rows",
    "write_train_report",
]


def code_version() -> str:
    """git describe when running from a checkout, else the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    try:
        from importlib.metadata import version

        return f"crosskv-{version('crosskv')}"
    except Exception:
        return "unknown"


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def host_details() -> dict:
    """Software and hardware that absolute timings depend on; an unset
    thread variable is None."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def write_manifest(directory: Path, command: str, config: dict, seed) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    payload = {
        "command": command,
        "config": config,
        "seed": seed,
        "code_version": code_version(),
        "host": host_details(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_rows(directory: Path, name: str, columns, rows, mirror_json: bool = False) -> list[Path]:
    """Write dict rows as CSV (and a JSON mirror when asked)."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    csv_path = directory / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    written.append(csv_path)
    if mirror_json:
        json_path = directory / f"{name}.json"
        json_path.write_text(json.dumps(list(rows), indent=2) + "\n")
        written.append(json_path)
    return written


def write_heatmap(directory: Path, name: str, hm, mirror_json: bool = False) -> list[Path]:
    """Write a HeatmapResult as one row per (kind, target, source) weight."""
    rows = []
    for ti, target in enumerate(hm.targets):
        for si, src in enumerate(hm.key_sources):
            rows.append({"kind": "key", "target": target, "source": src, "weight": repr(float(hm.key_matrix[ti, si]))})
        for si, src in enumerate(hm.value_sources):
            rows.append({"kind": "value", "target": target, "source": src, "weight": repr(float(hm.value_matrix[ti, si]))})
    return write_rows(directory, name, ("kind", "target", "source", "weight"), rows, mirror_json)


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def write_train_report(directory: Path, report, label: str = "", mirror_json: bool = False) -> list[Path]:
    """Serialize a TrainReport: loss curve, per-layer gradient norms, and
    the fusion-weight snapshot when the strategy has one."""
    prefix = f"{label}_" if label else ""
    loss_rows = [{"step": i, "loss": repr(loss)} for i, loss in enumerate(report.losses)]
    files = write_rows(directory, f"{prefix}losses", ("step", "loss"), loss_rows, mirror_json)

    norm_rows = []
    for rec in report.grad_norms:
        for layer in sorted(rec.norms):
            q, k, v = rec.norms[layer]
            norm_rows.append(
                {"step": rec.step, "layer": layer, "q_norm": _fmt(q), "k_norm": _fmt(k), "v_norm": _fmt(v)}
            )
    files += write_rows(
        directory, f"{prefix}grad_norms", ("step", "layer", "q_norm", "k_norm", "v_norm"), norm_rows, mirror_json
    )

    if report.heatmap is not None:
        files += write_heatmap(directory, f"{prefix}fusion_weights", report.heatmap, mirror_json)
    return files
