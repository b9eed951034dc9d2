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
    "write_manifest",
    "write_rows",
    "write_train_report",
]


def code_version() -> str:
    """git describe of the checkout holding this package (whatever the
    caller's working directory), else the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
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


def write_manifest(directory: Path, command: str, config: dict, seed) -> None:
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


def write_rows(directory: Path, name: str, columns, rows, mirror_json: bool = False) -> None:
    """Write dict rows as CSV (and a JSON mirror when asked)."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{name}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    if mirror_json:
        (directory / f"{name}.json").write_text(json.dumps(list(rows), indent=2) + "\n")


def write_train_report(directory: Path, report, label: str = "", mirror_json: bool = False) -> None:
    """Serialize a TrainReport: loss curve, per-layer gradient norms, and
    the fusion-weight rows when the strategy has them."""
    prefix = f"{label}_" if label else ""
    loss_rows = [{"step": i, "loss": repr(loss)} for i, loss in enumerate(report.losses)]
    write_rows(directory, f"{prefix}losses", ("step", "loss"), loss_rows, mirror_json)
    write_rows(directory, f"{prefix}grad_norms", report.grad_norms[0], report.grad_norms, mirror_json)
    if report.fusion_weights is not None:
        write_rows(directory, f"{prefix}fusion_weights", report.fusion_weights[0], report.fusion_weights, mirror_json)
