"""Command-line entry point.

Subcommands: `families list`, `chain` (build + verify, emit JSON report),
`verify` (re-run the suite from a stored report's config), `limit`
(convergence scans to CSV), `scan-gamma0` (shorthand for
`limit --mode gamma-to-0`).

A report's `status` is `pass` when every check ran and came in under its
tolerance, `fail` when any check failed (a NaN or infinite residual fails),
and `incomplete` when no check failed but some were skipped (a chain error
inside an identity, a quadrature that did not converge, a strip violation).

Exit codes: 0 success (for `chain` and `verify`: status `pass`), 1 status
`fail` or `incomplete`, or a chain error, 2 usage/parameter error.  Only
reports go to standard output (with `--out -`); diagnostics go to standard
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import CrumError, ParameterError
from .families import catalog
from .structure import GAMMAS, LimitScaling, emit_csv_rows, limit_check
from .verify import RunConfig, run_suite


def _parse_param(text):
    """name=value with value int/float/complex; complex uses 0.1+0.2j form."""
    if "=" not in text:
        raise ParameterError(f"malformed --param {text!r}, expected name=value")
    name, raw = text.split("=", 1)
    try:
        val = complex(raw)
    except ValueError as exc:
        raise ParameterError(f"could not parse value in {text!r}: {exc}") from exc
    if val.imag == 0:
        return name.strip(), val.real
    return name.strip(), val


def _float_list(text):
    """Comma list of floats, as --c and --gammas take them."""
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}") from None


def build_parser():
    p = argparse.ArgumentParser(prog="crum", description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("families", help="catalog of built-in families", allow_abbrev=False)
    fam.add_argument("action", choices=["list"])

    chain = sub.add_parser("chain", help="build a chain and run the full suite", allow_abbrev=False)
    chain.add_argument("--family", required=True)
    chain.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    chain.add_argument("--depth", type=int, default=2)
    chain.add_argument("--nmax", type=int, default=5)
    chain.add_argument("--samples", type=int, default=20)
    chain.add_argument("--seed", type=int, default=None)
    chain.add_argument("--out", default="-", help="report path, '-' for stdout")

    ver = sub.add_parser("verify", help="re-run the suite recorded in a report", allow_abbrev=False)
    ver.add_argument("report", help="existing JSON report (or config) file")
    ver.add_argument("--out", default="", help="optional path for the fresh report")

    lim = sub.add_parser("limit", help="convergence scans", allow_abbrev=False)
    lim.add_argument("--mode", choices=["gamma-to-0", "c-to-inf"], required=True)
    lim.add_argument("--c", type=_float_list,
                     help="comma list of c values, c-to-inf only (default 10,100,1000)")
    lim.add_argument("--gammas", type=_float_list,
                     help="comma list of shifts, gamma-to-0 only (default 1e-1,1e-2,1e-3)")
    lim.add_argument("--csv", default="-", help="CSV path, '-' for stdout")

    scan = sub.add_parser("scan-gamma0", help="shift-to-zero determinant scan", allow_abbrev=False)
    scan.add_argument("--gammas", type=_float_list)
    scan.add_argument("--csv", default="-")
    scan.set_defaults(mode="gamma-to-0")
    return p


def _seed_from(args_seed):
    env = os.environ.get("CRUM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"CRUM_SEED must be an integer, got {env!r}") from None
    return 2021 if args_seed is None else args_seed


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_text(rows):
    """CSV of the rows of a limit scan (never empty), columns in their key order."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_families(args):
    for name, constraint in catalog().items():
        print(f"{name}: {constraint}")
    return 0


def _cmd_chain(args):
    params = dict(_parse_param(t) for t in args.param)
    config = RunConfig(family=args.family, params=params, depth=args.depth,
                       nmax=args.nmax, samples=args.samples,
                       seed=_seed_from(args.seed))
    report = run_suite(config)
    payload = report.to_dict()
    payload["config"] = json.loads(config.to_json())
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    if not report.passed:
        print(f"suite status {report.status}; see the entries with pass=false "
              "or skipped in the report", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args):
    with open(args.report, encoding="utf-8") as fh:
        try:
            stored = json.load(fh)
        except ValueError as exc:
            raise ParameterError(f"{args.report} is not JSON: {exc}") from None
    if isinstance(stored, dict):
        stored = stored.get("config", stored)
    if not isinstance(stored, dict):
        raise ParameterError(f"{args.report} holds no report or config object")
    config = RunConfig.from_dict(stored)
    report = run_suite(config)
    if args.out:
        payload = report.to_dict()
        payload["config"] = json.loads(config.to_json())
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    print(f"re-verified {config.family} depth {config.depth}: {report.status}",
          file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_limit(args):
    if args.mode == "c-to-inf":
        table = limit_check("c_to_inf", LimitScaling(c_values=args.c) if args.c else None)
    else:
        table = limit_check("gamma_to_0", gammas=args.gammas or GAMMAS)
    _write_text(args.csv, _csv_text(emit_csv_rows(table)))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "limit":
            foreign = "gammas" if args.mode == "c-to-inf" else "c"
            if getattr(args, foreign) is not None:
                parser.error(f"--{foreign} does not apply to --mode {args.mode}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "families": _cmd_families,
        "chain": _cmd_chain,
        "verify": _cmd_verify,
        "limit": _cmd_limit,
        "scan-gamma0": _cmd_limit,
    }
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrumError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
