"""Command-line surface: pair repair, verification suites, gallery
generation, and delta sweeps.

Exit codes: 0 success; 1 a file could not be read or written; 2 an engine
failure or a suite violation; 64 the command line or an input was rejected.
The library rejects a bad input with ValueError; the handlers repeat none of
its checks, and ``main`` alone turns an exception into an exit code.  Every
command is deterministic given its inputs, flags, and --seed, whose default
is the AC_SEED environment variable (0 when it is unset).  A seed, from
either, that is not a nonnegative integer is a usage error.
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
from .suites import run_suite

EXIT_OK = 0
EXIT_IO = 1
EXIT_ENGINE = 2
EXIT_USAGE = 64

# frozen reference leakage values for the quarter-tridiagonal example at
# n=10, in units of 1e-3; generator output must match to one unit in the
# last digit
QUARTER_N10_TABLE = [0.0016, 0.0040, 0.0084, 0.0171, 0.0343, 0.0686,
                     0.1373, 0.2747, 0.5493, 1.0987]


# --n budget of each gallery object: (smallest, largest)
GALLERY_N = {"voiculescu": (1, 4096), "quarter-tridiag": (2, 4096), "winding": (2, 512)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A rejected command line: the usage here, the message by ``main``."""
        self.print_usage(sys.stderr)
        raise ValueError(message)


def delta_list(text: str) -> list[float]:
    """--deltas: one or more comma-separated numbers (their range is delta_sweep's)."""
    values = [float(s) for s in text.split(",") if s.strip()]
    if not values:
        raise ValueError(text)
    return values


def seed_value(text: str) -> int:
    """--seed: a nonnegative integer, the seeds numpy's default_rng takes."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


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
    pc.add_argument("--out", default="report.json")

    pv = sub.add_parser("verify", help="run a named property suite")
    pv.add_argument("suite")
    pv.add_argument("--seed", type=seed_value, default=None)
    pv.add_argument("--trials", type=int, default=100)

    pg = sub.add_parser("gallery", help="generate gallery objects")
    pg.add_argument("object", choices=list(GALLERY_N))
    pg.add_argument("--n", type=int, default=8)
    pg.add_argument("--out", default=".")

    ps = sub.add_parser("sweep", help="delta sweep over a perturbed commuting pair")
    ps.add_argument("matrix_a")
    ps.add_argument("matrix_b")
    ps.add_argument("--deltas", required=True, type=delta_list,
                    help="comma-separated commutator sizes, e.g. 1e-1,1e-2")
    ps.add_argument("--seed", type=seed_value, default=None)
    ps.add_argument("--out", default="sweep.csv")
    return p


def cmd_commute(args) -> int:
    a, b = load_matrix(args.matrix_a), load_matrix(args.matrix_b)
    hashes = {"a": _sha256(args.matrix_a), "b": _sha256(args.matrix_b)}
    rep = commute_hermitian_pair(a, b)
    doc = rep.to_json_dict(include_matrices=True)
    doc["inputs"] = hashes
    atomic_write_text(args.out, json.dumps(doc))
    print(json.dumps({"dist_a": rep.dist_a, "dist_b": rep.dist_b,
                      "comm_residual": rep.comm_residual, "out": args.out}))
    return EXIT_OK


def cmd_verify(args) -> int:
    out = run_suite(args.suite, args.seed, args.trials)
    out["seed"] = args.seed
    print(json.dumps(out))
    if out["violations"]:
        print(f"suite violation: {out['violations']} of {out['checks']} checks failed",
              file=sys.stderr)
        return EXIT_ENGINE
    return EXIT_OK


def cmd_gallery(args) -> int:
    n, (lo, hi) = args.n, GALLERY_N[args.object]
    if not lo <= n <= hi:
        raise ValueError(f"n out of budget: {args.object} takes {lo} <= n <= {hi}, got {n}")
    outdir = Path(args.out)
    if args.object == "voiculescu":
        u, v = voiculescu(n)
        outdir.mkdir(parents=True, exist_ok=True)
        save_matrix(outdir / f"voiculescu_u_{n}.json", u, unitary=True)
        save_matrix(outdir / f"voiculescu_v_{n}.json", v, unitary=True)
        print(json.dumps({"written": [f"voiculescu_u_{n}.json", f"voiculescu_v_{n}.json"],
                          "commutator": op_norm(commutator(u, v))}))
        return EXIT_OK
    if args.object == "quarter-tridiag":
        _, leak = quarter_tridiag(n)
        path = outdir / f"quarter_tridiag_{n}.csv"
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["index", "leakage"])
        for i, val in enumerate(leak):
            wr.writerow([i + 1, repr(float(val))])
        outdir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, buf.getvalue())
        result = {"written": [path.name]}
        if n == 10:
            comparison = [{"index": i + 1, "computed_x1e3": float(got), "printed_x1e3": want,
                           "match": bool(abs(got - want) <= 1.05e-4)}
                          for i, (got, want) in enumerate(zip(leak * 1e3, QUARTER_N10_TABLE))]
            result["reference_comparison"] = comparison
            result["reference_match"] = all(c["match"] for c in comparison)
        print(json.dumps(result))
        return EXIT_OK
    # "winding", the last of GALLERY_N's objects
    u, v = voiculescu(n)
    eye = np.eye(n, dtype=complex)
    res = winding_number(u, v, eye, eye)
    doc = {"n": n, "winding": res.winding, "stable": res.stable,
           "min_abs_det": res.min_abs, "steps": res.steps}
    outdir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(outdir / f"winding_{n}.json", json.dumps(doc))
    print(json.dumps(doc))
    return EXIT_OK


def cmd_sweep(args) -> int:
    a, b = load_matrix(args.matrix_a), load_matrix(args.matrix_b)
    g = random_hermitian(np.random.default_rng(args.seed), a.shape[0], norm=1.0)
    rows = delta_sweep(a, b, g, sorted(args.deltas, reverse=True))
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


def _env_seed() -> int:
    """AC_SEED (0 when unset), checked before int() and default_rng so that
    its errors name it."""
    env = os.environ.get("AC_SEED", "0")
    if not env.strip().lstrip("+-").replace("_", "").isdecimal():
        raise ValueError(f"AC_SEED must be an integer, got {env!r}")
    if int(env) < 0:
        raise ValueError(f"AC_SEED must be nonnegative, got {env!r}")
    return int(env)


HANDLERS = {"commute": cmd_commute, "verify": cmd_verify, "gallery": cmd_gallery,
            "sweep": cmd_sweep}


def main(argv=None) -> int:
    """Run one command.  The only place where an exception becomes an exit
    code; LinAlgError is a ValueError, so the engine clause comes first."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command in ("verify", "sweep") and args.seed is None:
            args.seed = _env_seed()
        return HANDLERS[args.command](args)
    except (MatrixFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (StageError, np.linalg.LinAlgError) as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
