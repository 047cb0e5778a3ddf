"""Command line front end.

Subcommands:
    analyze    full report for one Seifert matrix
    scan       batch reports for a census file (CSV or JSON lines)
    twist      sweep the twist-knot family over a parameter range
    charknots  characteristic knot classes for one matrix and one n
    selftest   run the built-in regression checks

A process builds the parser of all five subcommands once, on the first
call to main, and every later call parses with it.

The enumeration cap is resolved as: --enum-cap flag, then the
DIHEDRAL_ENUM_CAP environment variable, then the built-in default.
Exit codes: 0 on success, 1 on a fatal error (bad input or a bad flag
value), 2 on a usage error from argparse or a selftest failure.
"""

import argparse
import functools
import os
import sys

from .errors import DivisorSearchError, EnumerationCapError, integer, require_printable
from .obstruction import DEFAULT_ENUM_CAP, _enum_cap, characteristic_knot_classes
from .report import (
    DEFAULT_N_MAX,
    SCHEMA,
    KnotRecord,
    _escaped,
    _write_json,
    analyze,
    parse_matrix,
    render_report_text,
    render_twist_text,
    scan,
    twist_family,
)

ENV_ENUM_CAP = "DIHEDRAL_ENUM_CAP"


def _resolve_enum_cap(flag_value):
    """Apply the flag > environment > default precedence."""
    if flag_value is not None:
        return _enum_cap(flag_value, "--enum-cap")
    raw = os.environ.get(ENV_ENUM_CAP)
    if raw is not None:
        return _enum_cap(integer(raw, ENV_ENUM_CAP), ENV_ENUM_CAP)
    return DEFAULT_ENUM_CAP


def _parse_m_range(text):
    """Parse an inclusive A:B integer range."""
    first, sep, last = text.partition(":")
    if not sep:
        raise ValueError(f"twist range must look like A:B, got {text!r}")
    return integer(first, "--m-range start"), integer(last, "--m-range end")


def _print_json(x):
    """Write the JSON document of x to stdout in parts, then the newline
    print would end it with."""
    _write_json(x, sys.stdout.write)
    sys.stdout.write("\n")


def cmd_analyze(args):
    cap = _resolve_enum_cap(args.enum_cap)
    record = KnotRecord(args.name, parse_matrix(args.matrix))
    try:
        report = analyze(record, args.n or None, n_max=args.n_max, enum_cap=cap)
    except DivisorSearchError as e:
        advice = "give the orders with --n, or a smaller --n-max"
        raise DivisorSearchError(e.search, advice) from None
    if args.format == "json":
        _print_json(report)
    else:
        print(render_report_text(report))
    return 0


def cmd_scan(args):
    cap = _resolve_enum_cap(args.enum_cap)
    rows = list(scan(args.path, n_max=args.n_max, enum_cap=cap))
    if args.format == "json":
        _print_json(rows)
    else:
        chunks = []
        for r in rows:
            if hasattr(r, "error"):
                chunks.append(_escaped(f"error (row {r.row}, {r.name}): {r.error}"))
            else:
                chunks.append(render_report_text(r))
        print("\n\n".join(chunks))
    return 0


def cmd_twist(args):
    cap = _resolve_enum_cap(args.enum_cap)
    first, last = _parse_m_range(args.m_range)
    rows = twist_family(first, last, enum_cap=cap)
    if args.format == "json":
        _print_json({"schema": SCHEMA, "rows": rows})
    else:
        print(render_twist_text(rows))
    return 0


def cmd_charknots(args):
    cap = _resolve_enum_cap(args.enum_cap)
    v = parse_matrix(args.matrix)
    note = None
    classes = []
    try:
        for ck in characteristic_knot_classes(v, args.n, enum_cap=cap):
            classes.append({
                "beta": ck.beta,
                "form_value": require_printable(ck.form_value(), "form value"),
                "form_value_mod_n2": ck.form_value_mod_n2(),
                "passes_criterion": ck.form_value_mod_n2() == 0,
            })
    except EnumerationCapError as e:
        note = f"not enumerated: {e}"
    if args.format == "json":
        _print_json({"schema": SCHEMA, "n": args.n, "classes": classes, "note": note})
    else:
        if note is not None:
            print(note)
        else:
            print(f"characteristic classes mod {args.n}: {len(classes)}")
            for c in classes:
                beta = ", ".join(str(x) for x in c["beta"])
                verdict = "pass" if c["passes_criterion"] else "fail"
                print(f"  beta ({beta})  value mod n^2 = {c['form_value_mod_n2']}"
                      f"  criterion: {verdict}")
    return 0


def cmd_selftest(args):
    from . import selftest  # only this command loads it
    return selftest.run()


def _add_common(sub, matrix=False):
    if matrix:
        sub.add_argument("--matrix", required=True,
                         help="Seifert matrix, brace form like {{-1,1},{0,2}}")
    sub.add_argument("--enum-cap", type=integer, default=None, metavar="N",
                     help=f"enumeration cap (default {DEFAULT_ENUM_CAP}, "
                          f"or {ENV_ENUM_CAP})")
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="output format (default json)")


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dihedral",
        description="Dihedral branched-cover obstructions from Seifert matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full report for one knot")
    _add_common(p, matrix=True)
    p.add_argument("--name", default="knot", help="knot name for the report")
    p.add_argument("--n", type=integer, action="append", metavar="N",
                   help="dihedral order, repeatable; default: all odd divisors")
    p.add_argument("--n-max", type=integer, default=DEFAULT_N_MAX, metavar="N",
                   help=f"largest n considered in auto mode (default {DEFAULT_N_MAX})")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("scan", help="batch reports for a census file")
    p.add_argument("path", help="CSV (name,seifert header) or JSON-lines file")
    p.add_argument("--n-max", type=integer, default=DEFAULT_N_MAX, metavar="N",
                   help=f"largest n considered (default {DEFAULT_N_MAX})")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = subs.add_parser("twist", help="sweep the twist-knot family")
    p.add_argument("--m-range", required=True, metavar="A:B",
                   help="inclusive twist parameter range, e.g. --m-range=-1:2")
    _add_common(p)
    p.set_defaults(func=cmd_twist)

    p = subs.add_parser("charknots", help="characteristic knot classes")
    _add_common(p, matrix=True)
    p.add_argument("--n", type=integer, required=True, metavar="N",
                   help="dihedral order (odd, > 1)")
    p.set_defaults(func=cmd_charknots)

    p = subs.add_parser("selftest", help="run the built-in regression checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def _normalize_argv(argv):
    """Join --m-range with its value so ranges starting at a negative m,
    like --m-range -5:5, are not mistaken for option strings."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--m-range":
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"--m-range={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(argv)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (OSError, ValueError, TypeError, ArithmeticError, EnumerationCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
