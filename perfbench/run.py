"""Pipeline benchmark for tactile-force.

    python3 perfbench/run.py --workload train_c4 --seed 1 --seconds 25 --trace 0

Runs one workload (see `workloads.py` and `README.md`) in this process with
BLAS pinned to one thread, checks its outputs, and prints as the last line
of stdout one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from spans recorded
around the package's public callables on every second pass. The line before
it records the environment, the sample counts and, when tracing, the spans.

The package is imported from `src/` next to this directory; the benchmark
exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
PACKAGE_MODULES = (
    "cli", "synthetic", "dataset", "mechanics", "sensor", "voxel", "baselines", "metrics",
    "net.training", "net.losses", "net.network", "net.checkpoint",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_c4", "label_planar", "cli_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    return parser.parse_args(argv)


def import_package():
    """The tactile_force modules from this checkout, as one namespace."""
    import importlib
    from types import SimpleNamespace

    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"tactile_force.{name}") for name in PACKAGE_MODULES}
    if Path(mods["cli"].__file__).resolve().parents[1] != SRC:
        raise ImportError(f"tactile_force imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(
        **{name.replace("net.", ""): mod for name, mod in mods.items()},
        modules=list(mods.values()),
    )


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(np, seed: int) -> dict:
    import hashlib
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "tactile_force").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "tactile_force" / "__init__.py").is_file():
        print(f"error: no tactile_force package under {SRC}", file=sys.stderr)
        return 2
    import json

    import numpy as np

    from measure import measure

    tf = import_package()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    report = measure(tf, args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke, WORK_DIR / f"run-{os.getpid()}", list(units))
    values = report.pop("metrics")
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    report["env"] = environment(np, args.seed)
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
