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
from .structure import LimitScaling, emit_csv_rows, limit_check
from .verify import RunConfig, run_suite

_CSV_FIELDS = ("mode", "label", "parameter", "max_error", "fitted_slope", "flag")


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


def build_parser():
    p = argparse.ArgumentParser(prog="crum", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("families", help="catalog of built-in families")
    fam.add_argument("action", choices=["list"])

    chain = sub.add_parser("chain", help="build a chain and run the full suite")
    chain.add_argument("--family", required=True)
    chain.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    chain.add_argument("--depth", type=int, default=2)
    chain.add_argument("--nmax", type=int, default=5)
    chain.add_argument("--samples", type=int, default=20)
    chain.add_argument("--seed", type=int, default=None)
    chain.add_argument("--out", default="-", help="report path, '-' for stdout")

    ver = sub.add_parser("verify", help="re-run the suite recorded in a report")
    ver.add_argument("report", help="existing JSON report (or config) file")
    ver.add_argument("--out", default="", help="optional path for the fresh report")

    lim = sub.add_parser("limit", help="convergence scans")
    lim.add_argument("--mode", choices=["gamma-to-0", "c-to-inf"], required=True)
    lim.add_argument("--c", default="10,100,1000", help="comma list of c values")
    lim.add_argument("--gammas", default="1e-1,1e-2,1e-3")
    lim.add_argument("--csv", default="-", help="CSV path, '-' for stdout")

    scan = sub.add_parser("scan-gamma0", help="shift-to-zero determinant scan")
    scan.add_argument("--gammas", default="1e-1,1e-2,1e-3")
    scan.add_argument("--csv", default="-")
    scan.set_defaults(mode="gamma-to-0")
    return p


def _seed_from(args_seed):
    env = os.environ.get("CRUM_SEED")
    if env is not None:
        return int(env)
    return 2021 if args_seed is None else int(args_seed)


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_text(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in _CSV_FIELDS})
    return buf.getvalue()


def _cmd_families(args):
    for name, constraint in catalog().items():
        print(f"{name}: {constraint}")
    return 0


def _cmd_chain(args):
    params = dict(_parse_param(t) for t in args.param)
    config = RunConfig(family=args.family, params=params, depth=args.depth,
                       nmax=args.nmax, samples=args.samples,
                       seed=_seed_from(args.seed), out=args.out)
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
        stored = json.load(fh)
    config = RunConfig.from_dict(stored.get("config", stored))
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
        cs = tuple(float(t) for t in args.c.split(","))
        table = limit_check("c_to_inf", LimitScaling(w1=lambda x: x + 0.3j * x * x,
                                                     c_values=cs))
    else:
        gs = tuple(float(t) for t in args.gammas.split(","))
        table = limit_check("gamma_to_0", gammas=gs)
    _write_text(args.csv, _csv_text(emit_csv_rows(table)))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
