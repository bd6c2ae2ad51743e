#!/usr/bin/env python3
"""End-to-end benchmark of the E_pol serving stack.

Run from the repository root; the stack is imported from ``src/``::

    python3 e2ebench/run.py --workers 2 --workload cold-decoys \\
        --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer table with ``--trace 1``.  A
detailed record (machine fingerprint, determinism counters, set-up
repetitions) goes to ``e2ebench/out/``.  The exit code is 1 when a
served energy differs from the cold reference, 2 when the sources are
missing.  See ``e2ebench/README.md`` for the workloads and metrics.
"""

import os

#: One BLAS thread per process, fixed before numpy loads.  Fleet workers
#: are forked from this process and inherit it; a threaded BLAS would
#: also oversubscribe a two-worker fleet on a small machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cold-decoys", "warm-zipf", "giant-sliced")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, required=True,
                    help="worker processes serving the run (warm-zipf "
                         "splits them over its two nodes)")
    args = ap.parse_args(argv)
    if args.workers < 1 or args.seconds <= 0:
        ap.error("--workers and --seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"e2ebench: repro imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from e2ebench.bench import run

    line, code, record = run(args.workload, seed=args.seed,
                             seconds=args.seconds, workers=args.workers,
                             trace=bool(args.trace), root=ROOT,
                             blas_env=BLAS_ENV)
    # The shared-memory resource tracker is the one process the standard
    # library started for us; end it and reap it before exiting.
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    det = record["determinism"]
    print(f"# {args.workload} seed={args.seed} "
          f"requests={record['window']['requests']} "
          f"digest={det['digest']} unsteady_reps={det['unsteady_reps']} "
          f"window_invariants_hold={det['window_invariants_hold']} "
          f"mismatches={len(record['mismatches'])}")
    print(json.dumps(line), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
