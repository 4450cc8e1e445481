"""Command-line interface.

Exit codes: 0 all checks pass, 1 a verification check failed, 2 usage or
domain error.  All output is exact and deterministic; --decimal renders
scalars approximately for reading but is never used by any check.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalogue import CatalogueError, build, list_catalogue
from .fock import to_matrix
from .qheis import QDomainError
from .realize import RealizeError, cross_check, poly_to_matrix, realize_generators
from .scalars import Scalar, rat
from .verify import BURNSIDE_DIM_CAP, casimir_check, full_verify


class UsageError(Exception):
    pass


def parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError("parameters look like name=rational, got %r" % pair)
        name, _, value = pair.partition("=")
        name = name.strip()
        if name in params:
            raise UsageError("parameter %s given more than once" % name)
        try:
            params[name] = rat(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError("bad rational %r for %s: %s" % (value, name, exc))
    return params


def cutoff_arg(text) -> int:
    """argparse type for --cutoff.  UsageError is not a ValueError, so
    argparse lets it through to main, which prints one line and exits 2."""
    if not text.isdecimal():
        raise UsageError("--cutoff must be a nonnegative integer, got %r" % text)
    return int(text)


def _emit(payload, args):
    text = json.dumps(payload, indent=2, sort_keys=True) \
        if args.format == "json" else payload
    if not isinstance(text, str):
        text = str(text)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (args.out, exc.strerror or exc))
    else:
        print(text)


def cmd_list(args) -> int:
    entries = list_catalogue()
    if args.filter:
        entries = [e for e in entries if args.filter in e[0] or args.filter in e[2]]
    if args.format == "json":
        _emit([{"id": rid, "params": sig, "family": desc}
               for rid, sig, desc in entries], args)
    else:
        width = max(len(rid) for rid, _, _ in entries) if entries else 0
        lines = ["%-*s  (%s)  %s" % (width, rid, sig or "no parameters", desc)
                 for rid, sig, desc in entries]
        _emit("\n".join(lines), args)
    return 0


def _report_lines(report):
    lines = ["%s %s" % (report.rep_id,
                        " ".join("%s=%s" % kv for kv in sorted(report.params.items())))]
    for c in report.checks:
        lines.append("  %-4s %s%s" % (c.status, c.name,
                                      "  [%s]" % c.detail if c.detail else ""))
        if c.witness:
            lines.append("       witness: %s" % c.witness)
    for a in report.alt_forms:
        lines.append("  %-7s alt form %s%s"
                     % (a.status, a.generator,
                        "  [%s]" % a.detail if a.detail else ""))
    lines.append("result: %s" % ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)


def cmd_verify(args) -> int:
    rep = build(args.rep, parse_params(args.params))
    report = full_verify(rep, args.cutoff,
                         burnside_cap=None if args.deep else BURNSIDE_DIM_CAP)
    if args.format == "json":
        _emit(report.to_json(), args)
    else:
        _emit(_report_lines(report), args)
    return 0 if report.passed else 1


def cmd_matrix(args) -> int:
    rep = build(args.rep, parse_params(args.params))
    cutoff = args.cutoff
    if cutoff is None:
        cutoff = rep.invariant_space.max_degree if rep.invariant_space else 6
    if args.realization == "fock":
        gen = rep.generator(args.gen)
        mat = to_matrix(gen, cutoff, args.gen)
    else:
        kind = {"diff": "differential", "fd": "fd", "jackson": "jackson"}[args.realization]
        gens = realize_generators(rep, kind)
        if args.gen not in gens:
            raise UsageError("unknown generator %r; have %s"
                             % (args.gen, ", ".join(gens)))
        mat = poly_to_matrix(gens[args.gen], cutoff, args.gen)
    payload = mat.to_json()
    payload["rep"] = args.rep
    payload["generator"] = args.gen
    payload["realization"] = args.realization
    if args.decimal:
        payload["matrix_decimal"] = [
            [Scalar.from_json(entry).to_decimal() for entry in row]
            for row in payload["matrix"]]
    if args.format == "pretty":
        rows = [" ".join(str(Scalar.from_json(entry)).rjust(8) for entry in row)
                for row in payload["matrix"]]
        head = "%s of %s, cutoff %d, dim %d" % (args.gen, args.rep, mat.cutoff, mat.dim)
        if mat.overflow_columns:
            head += ", overflow columns %s" % mat.overflow_columns
        _emit(head + "\n" + "\n".join(rows), args)
    else:
        _emit(payload, args)
    return 0


def cmd_casimir(args) -> int:
    rep = build(args.rep, parse_params(args.params))
    if rep.casimir is None:
        raise UsageError("%s carries no Casimir descriptor" % args.rep)
    measured, checks, claim = casimir_check(rep, args.cutoff)
    payload = {
        "rep": args.rep,
        "params": {k: str(v) for k, v in sorted(rep.params.items())},
        "name": rep.casimir.name,
        "claimed": str(rep.casimir.claimed),
        "measured": None if measured is None else str(measured),
        "checks": [c.to_json() for c in checks],
    }
    if claim is not None:
        payload["claim_status"] = claim.status
    if args.format == "json":
        _emit(payload, args)
    else:
        lines = ["%s %s: measured %s, claimed %s (%s)"
                 % (args.rep, rep.casimir.name, payload["measured"],
                    payload["claimed"], payload.get("claim_status", "UNMEASURED"))]
        lines += ["  %s %s" % (c.status, c.name) for c in checks]
        _emit("\n".join(lines), args)
    return 0 if all(c.passed for c in checks) else 1


def cmd_report_all(args) -> int:
    from .grids import acceptance_grid

    reports = []
    all_pass = True
    for rep_id, params in acceptance_grid(small=args.grid == "small"):
        rep = build(rep_id, params)
        report = full_verify(rep)
        reports.append(report)
        all_pass = all_pass and report.passed
    if args.format == "json":
        _emit([r.to_json() for r in reports], args)
    else:
        lines = []
        for r in reports:
            lines.append("%-5s %s %s  (%d checks, %d ms)"
                         % ("PASS" if r.passed else "FAIL", r.rep_id,
                            " ".join("%s=%s" % kv for kv in sorted(r.params.items())),
                            len(r.checks), r.elapsed_ms))
        lines.append("total: %d runs, %s" % (len(reports),
                                             "all PASS" if all_pass else "FAILURES"))
        _emit("\n".join(lines), args)
    return 0 if all_pass else 1


def cmd_cross(args) -> int:
    rep = build(args.rep, parse_params(args.params))
    kind = {"diff": "differential", "fd": "fd", "jackson": "jackson"}[args.realization]
    results = cross_check(rep, kind, args.cutoff)
    if args.format == "json":
        _emit([c.to_json() for c in results], args)
    else:
        _emit("\n".join("%-4s %s" % (c.status, c.name) for c in results), args)
    return 0 if all(c.passed for c in results) else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockrep",
        description="Exact verification of the Fock-space representation catalogue")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, params=True):
        if params:
            p.add_argument("params", nargs="*", metavar="name=rational",
                           help="exact parameters, e.g. n=3 delta=1/2")
        p.add_argument("--cutoff", type=cutoff_arg, default=None)
        p.add_argument("--format", choices=["json", "pretty"], default="pretty")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("list", help="list the sixteen catalogued representations")
    p.add_argument("--filter", default=None)
    p.add_argument("--format", choices=["json", "pretty"], default="pretty")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("verify", help="run every applicable check for one family")
    p.add_argument("rep")
    common(p)
    p.add_argument("--deep", action="store_true",
                   help="run the irreducibility span on large spaces too")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("matrix", help="emit one generator's exact matrix")
    p.add_argument("rep")
    common(p)
    p.add_argument("--gen", required=True, help="generator name, e.g. J0")
    p.add_argument("--realization", choices=["fock", "diff", "fd", "jackson"],
                   default="fock")
    p.add_argument("--decimal", action="store_true",
                   help="add an approximate rendering (never used in checks)")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("casimir", help="measure the Casimir scalar exactly")
    p.add_argument("rep")
    common(p)
    p.set_defaults(func=cmd_casimir)

    p = sub.add_parser("cross", help="compare a function-space realization "
                                     "with the abstract matrices")
    p.add_argument("rep")
    common(p)
    p.add_argument("--realization", choices=["diff", "fd", "jackson"],
                   required=True)
    p.set_defaults(func=cmd_cross)

    p = sub.add_parser("report-all", help="verify the whole catalogue grid")
    p.add_argument("--grid", choices=["small", "full"], default="small")
    p.add_argument("--format", choices=["json", "pretty"], default="pretty")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report_all)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CatalogueError, QDomainError, RealizeError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
