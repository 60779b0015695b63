"""Benchmark entry point.

    python3 bench/run.py --workload planted --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout: the library is imported from ``src/``.
Workloads: planted, tensor-lift, verify-suites.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics; the names
and units are listed in ``BENCHMARK.json``.  The last line of standard output
is the result object; the lines before it are the environment, one row of
quality columns per instance, and every metric the run measured.  A copy of
the run's output (and, when traced, its spans) is written to ``.bench_out/``.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("planted", "tensor-lift", "verify-suites")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nearcommute" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: {SRC / 'nearcommute'} or {spec_path} is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import nearcommute
    if Path(nearcommute.__file__).resolve().parent != SRC / "nearcommute":
        print(f"bench: imported nearcommute from {nearcommute.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from bench import harness

    import_s = perf_counter() - STARTED
    spec = json.loads(spec_path.read_text())
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         spec=spec, out_dir=ROOT / ".bench_out", import_s=import_s,
                         emit=lambda line: print(line, flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
