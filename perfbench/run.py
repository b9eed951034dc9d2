"""crosskv benchmark: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload decode_long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; it imports `crosskv` from `src/`.
With `--trace 0` the last line of standard output is the result with every
end-to-end metric of BENCHMARK.json; with `--trace 1` it carries every
per-layer metric, from a traced run, instead. The
line before it is an informational report: host fingerprint, error rate,
sample counts, the time spent on each kind of request and, untraced, the
cost-model cross-check.
`--workload all` runs every workload in a fresh process of its own.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Fixed before numpy loads its BLAS: one thread (never more than nproc) is
# the steadiest setting on a small shared host.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def fixed_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds at the values its dynamic
    adjustment converges to (32 MiB, 64 MiB). Left dynamic, they move when
    whichever of decode_long's request threads first frees a large block,
    and peak RSS and the slowest decode steps would vary with that timing
    (peak RSS 570 vs 750 MiB between runs)."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: nothing to pin
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def host_fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def declared_metrics(kind: str = "both") -> dict:
    """name -> unit for every metric BENCHMARK.json declares: `end_to_end`,
    `per_layer` or both."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = ("end_to_end", "per_layer") if kind == "both" else (kind,)
    return {m["name"]: m["unit"] for k in kinds for m in spec[k]}


def result_line(values: dict, units: dict, attempted: int, failed: int) -> dict:
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def with_process_metrics(out, import_s: float, trace: bool) -> dict:
    """The workload's metrics plus, untraced, set-up time and peak RSS."""
    values = dict(out.metrics)
    if not trace:
        values["setup_s"] = import_s + out.setup_s
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t0 = time.process_time()  # CPU time, like every duration reported (see hooks.clock)
    import numpy  # noqa: F401  (timed: part of set-up)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import crosskv
    import workloads

    import_s = time.process_time() - t0
    if Path(crosskv.__file__).resolve().parent != ROOT / "src" / "crosskv":
        print(f"imported crosskv from {crosskv.__file__}, not from this checkout", file=sys.stderr)
        return 2

    units = declared_metrics("per_layer" if trace else "end_to_end")
    out = workloads.WORKLOADS[workload](seed, seconds, trace)
    values = with_process_metrics(out, import_s, trace)
    missing = sorted(set(units) - set(values))
    if missing and out.failed == 0:
        print(f"declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "host": host_fingerprint(),
        "error_rate": out.failed / out.attempted,
        "import_s": import_s,
        **out.report,
    }
    print(json.dumps({"report": report}))
    for name, value in values.items():
        print(f"  {name:50s} {value:14.6g} {units.get(name, '?')}", file=sys.stderr)
    print(f"  {'error_rate':50s} {report['error_rate']:14.6g} fraction", file=sys.stderr)
    print(json.dumps(result_line(values, units, out.attempted, out.failed)))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0


WORKLOAD_NAMES = ("decode_long", "train_toy")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crosskv" / "__init__.py").is_file():
        print(f"no crosskv sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    if args.workload == "all":
        return run_all(args)
    fixed_malloc_thresholds()
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
