"""Command-line surface: pair repair, verification suites, gallery
generation, and delta sweeps.

Exit codes: 0 success, 1 I/O failure, 2 engine failure, 64 usage error.
Every command is deterministic given its inputs, flags, and --seed, whose
default is the AC_SEED environment variable (0 when it is unset; a value
that is not an integer is a usage error).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .gallery import quarter_tridiag, voiculescu, winding_number
from .matcore import commutator, op_norm, random_hermitian
from .matio import MatrixFileError, atomic_write_text, load_matrix, save_matrix
from .pipeline import commute_hermitian_pair, delta_sweep
from .subspace import StageError
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_IO = 1
EXIT_ENGINE = 2
EXIT_USAGE = 64

# frozen reference leakage values for the quarter-tridiagonal example at
# n=10, in units of 1e-3; generator output must match to one unit in the
# last digit
QUARTER_N10_TABLE = [0.0016, 0.0040, 0.0084, 0.0171, 0.0343, 0.0686,
                     0.1373, 0.2747, 0.5493, 1.0987]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _build_parser() -> _Parser:
    p = _Parser(prog="nearcommute",
                description="construct exactly commuting matrices near "
                            "almost-commuting inputs and verify the bounds")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("commute", help="repair an almost-commuting Hermitian pair")
    pc.add_argument("matrix_a")
    pc.add_argument("matrix_b")
    pc.add_argument("--gamma2", type=float, default=1.0)
    pc.add_argument("--out", default="report.json")

    pv = sub.add_parser("verify", help="run a named property suite")
    pv.add_argument("suite")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--trials", type=int, default=100)

    pg = sub.add_parser("gallery", help="generate gallery objects")
    pg.add_argument("object", choices=["voiculescu", "quarter-tridiag", "winding"])
    pg.add_argument("--n", type=int, default=8)
    pg.add_argument("--out", default=".")

    ps = sub.add_parser("sweep", help="delta sweep over a perturbed commuting pair")
    ps.add_argument("matrix_a")
    ps.add_argument("matrix_b")
    ps.add_argument("--deltas", required=True,
                    help="comma-separated commutator sizes, e.g. 1e-1,1e-2")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--gamma2", type=float, default=1.0)
    ps.add_argument("--out", default="sweep.csv")
    return p


def cmd_commute(args) -> int:
    try:
        a = load_matrix(args.matrix_a)
        b = load_matrix(args.matrix_b)
        hashes = {"a": _sha256(args.matrix_a), "b": _sha256(args.matrix_b)}
    except (MatrixFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        rep = commute_hermitian_pair(a, b, args.gamma2)
    except (StageError,) as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    doc = rep.to_json_dict(include_matrices=True)
    doc["inputs"] = hashes
    doc["config"] = {"gamma2": args.gamma2}
    atomic_write_text(args.out, json.dumps(doc))
    print(json.dumps({"dist_a": rep.dist_a, "dist_b": rep.dist_b,
                      "comm_residual": rep.comm_residual, "out": args.out}))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from {sorted(SUITES)}",
              file=sys.stderr)
        return EXIT_USAGE
    out = run_suite(args.suite, args.seed, args.trials)
    out["seed"] = args.seed
    print(json.dumps(out))
    return EXIT_OK if out["violations"] == 0 else EXIT_ENGINE


def cmd_gallery(args) -> int:
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    n = args.n
    if args.object == "voiculescu":
        if n < 1 or n > 4096:
            print("error: n out of budget", file=sys.stderr)
            return EXIT_USAGE
        u, v = voiculescu(n)
        save_matrix(outdir / f"voiculescu_u_{n}.json", u, unitary=True)
        save_matrix(outdir / f"voiculescu_v_{n}.json", v, unitary=True)
        print(json.dumps({"written": [f"voiculescu_u_{n}.json", f"voiculescu_v_{n}.json"],
                          "commutator": op_norm(commutator(u, v))}))
        return EXIT_OK
    if args.object == "quarter-tridiag":
        if n < 2 or n > 4096:
            print("error: n out of budget", file=sys.stderr)
            return EXIT_USAGE
        j, leak = quarter_tridiag(n)
        path = outdir / f"quarter_tridiag_{n}.csv"
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["index", "leakage"])
        for i, val in enumerate(leak):
            wr.writerow([i + 1, repr(float(val))])
        atomic_write_text(path, buf.getvalue())
        result = {"written": [path.name]}
        if n == 10:
            comparison = []
            ok = True
            for i, (got, want) in enumerate(zip(leak * 1e3, QUARTER_N10_TABLE)):
                match = bool(abs(got - want) <= 1.05e-4)
                ok = ok and match
                comparison.append({"index": i + 1, "computed_x1e3": float(got),
                                   "printed_x1e3": want, "match": match})
            result["reference_comparison"] = comparison
            result["reference_match"] = ok
        print(json.dumps(result))
        return EXIT_OK
    # "winding", the last of the parser's choices
    if n < 2 or n > 512:
        print("error: n out of budget", file=sys.stderr)
        return EXIT_USAGE
    u, v = voiculescu(n)
    eye = np.eye(n, dtype=complex)
    res = winding_number(u, v, eye, eye)
    doc = {"n": n, "winding": res.winding, "stable": res.stable,
           "min_abs_det": res.min_abs, "steps": res.steps}
    atomic_write_text(outdir / f"winding_{n}.json", json.dumps(doc))
    print(json.dumps(doc))
    return EXIT_OK


def cmd_sweep(args) -> int:
    deltas = [s for s in args.deltas.split(",") if s.strip()]
    if not deltas:
        print("error: empty delta list", file=sys.stderr)
        return EXIT_USAGE
    try:
        values = [float(s) for s in deltas]
    except ValueError:
        print(f"error: bad delta list {args.deltas!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        a = load_matrix(args.matrix_a)
        b = load_matrix(args.matrix_b)
    except (MatrixFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    rng = np.random.default_rng(args.seed)
    g = random_hermitian(rng, a.shape[0], norm=1.0)
    try:
        rows = delta_sweep(a, b, g, sorted(values, reverse=True), args.gamma2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["delta", "dist_a", "dist_b", "eps2_max"])
    for r in rows:
        wr.writerow([repr(r["delta"]), repr(r["dist_a"]), repr(r["dist_b"]),
                     repr(r["eps2_max"])])
    atomic_write_text(args.out, buf.getvalue())
    monotone = all(rows[i]["dist_a"] >= rows[i + 1]["dist_a"] - 1e-12
                   and rows[i]["dist_b"] >= rows[i + 1]["dist_b"] - 1e-12
                   for i in range(len(rows) - 1))
    print(json.dumps({"rows": len(rows), "monotone_trend": monotone, "out": args.out}))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.command in ("verify", "sweep") and args.seed is None:
        env = os.environ.get("AC_SEED", "0")
        try:
            args.seed = int(env)
        except ValueError:
            print(f"error: AC_SEED must be an integer, got {env!r}", file=sys.stderr)
            return EXIT_USAGE
    handlers = {
        "commute": cmd_commute,
        "verify": cmd_verify,
        "gallery": cmd_gallery,
        "sweep": cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
