"""Pipeline benchmark for iadl: simulate, init, fit and evaluate, end to end
and layer by layer.

Run from the root of a checkout:

    python3 pipebench/run.py --workload full_subject --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced rounds and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See pipebench/README.md for the workloads and the metric map.
"""

import os

# One BLAS thread: the plain single-threaded baseline, and bit-repeatable
# quality metrics.  Must happen before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_package():
    """Import iadl from this checkout's sources, never from elsewhere."""
    if not (SRC / "iadl" / "__init__.py").is_file():
        raise SystemExit(f"error: no iadl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import iadl

    if Path(iadl.__file__).resolve().parent != (SRC / "iadl").resolve():
        raise SystemExit(f"error: iadl imported from {iadl.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    env = bench.environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    work_root = ROOT / ".pipebench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root, prefix=f"{args.workload}-") as tmp:
        outcome = bench.run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), Path(tmp),
        )
    if args.trace:
        spans_file = work_root / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(outcome.pop("spans")) + "\n")
    for line in outcome.pop("report"):
        print(line)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
