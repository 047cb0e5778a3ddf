"""Command line front end.

Subcommands:
    analyze    full report for one Seifert matrix
    scan       batch reports for a census file (CSV or JSON lines)
    twist      sweep the twist-knot family over a parameter range
    charknots  characteristic knot classes for one matrix and one n
    selftest   run the built-in regression checks

The enumeration cap is resolved as: --enum-cap flag, then the
DIHEDRAL_ENUM_CAP environment variable, then the built-in default.
Exit codes: 0 on success, 1 on a fatal error, 2 on selftest failure.
"""

import argparse
import json
import os
import sys

from . import selftest as selftest_mod
from .errors import EnumerationCapError
from .obstruction import (
    DEFAULT_ENUM_CAP,
    characteristic_knot_classes,
    seifert_criterion,
)
from .report import (
    DEFAULT_N_MAX,
    SCHEMA,
    KnotRecord,
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
        if flag_value < 1:
            raise ValueError(f"enumeration cap must be >= 1, got {flag_value}")
        return flag_value
    raw = os.environ.get(ENV_ENUM_CAP)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_ENUM_CAP} must be an integer, got {raw!r}")
        if cap < 1:
            raise ValueError(f"{ENV_ENUM_CAP} must be >= 1, got {cap}")
        return cap
    return DEFAULT_ENUM_CAP


def _parse_m_range(text):
    """Parse an inclusive A:B integer range."""
    first, sep, last = text.partition(":")
    if not sep:
        raise ValueError(f"twist range must look like A:B, got {text!r}")
    try:
        return int(first), int(last)
    except ValueError:
        raise ValueError(f"twist range endpoints must be integers, got {text!r}")


def cmd_analyze(args):
    cap = _resolve_enum_cap(args.enum_cap)
    record = KnotRecord(args.name, parse_matrix(args.matrix))
    report = analyze(record, args.n or None, n_max=args.n_max, enum_cap=cap)
    if args.format == "json":
        print(report.to_json())
    else:
        print(render_report_text(report))
    return 0


def cmd_scan(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    cap = _resolve_enum_cap(args.enum_cap)
    rows = list(scan(args.path, jobs=args.jobs, n_max=args.n_max, enum_cap=cap))
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in rows], indent=2, sort_keys=True))
    else:
        chunks = []
        for r in rows:
            if hasattr(r, "error"):
                chunks.append(f"error (row {r.row}, {r.name}): {r.error}")
            else:
                chunks.append(render_report_text(r))
        print("\n\n".join(chunks))
    return 0


def cmd_twist(args):
    cap = _resolve_enum_cap(args.enum_cap)
    first, last = _parse_m_range(args.m_range)
    rows = twist_family(first, last, enum_cap=cap)
    if args.format == "json":
        doc = {"schema": SCHEMA, "rows": [r.to_dict() for r in rows]}
        print(json.dumps(doc, indent=2, sort_keys=True))
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
            value = ck.form_value()
            classes.append({
                "beta": [str(x) for x in ck.beta],
                "form_value": str(value),
                "form_value_mod_n2": str(value % args.n ** 2),
                "passes_criterion": seifert_criterion(v, ck),
            })
    except EnumerationCapError as e:
        note = f"not enumerated: {e}"
    if args.format == "json":
        doc = {"schema": SCHEMA, "n": args.n, "classes": classes, "note": note}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if note is not None:
            print(note)
        else:
            print(f"characteristic classes mod {args.n}: {len(classes)}")
            for c in classes:
                beta = ", ".join(c["beta"])
                verdict = "pass" if c["passes_criterion"] else "fail"
                print(f"  beta ({beta})  value mod n^2 = {c['form_value_mod_n2']}"
                      f"  criterion: {verdict}")
    return 0


def cmd_selftest(args):
    return selftest_mod.run()


def _add_common(sub, matrix=False):
    if matrix:
        sub.add_argument("--matrix", required=True,
                         help="Seifert matrix, brace form like {{-1,1},{0,2}}")
    sub.add_argument("--enum-cap", type=int, default=None, metavar="N",
                     help=f"enumeration cap (default {DEFAULT_ENUM_CAP}, "
                          f"or {ENV_ENUM_CAP})")
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="output format (default json)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dihedral",
        description="Dihedral branched-cover obstructions from Seifert matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full report for one knot")
    _add_common(p, matrix=True)
    p.add_argument("--name", default="knot", help="knot name for the report")
    p.add_argument("--n", type=int, action="append", metavar="N",
                   help="dihedral order, repeatable; default: all odd divisors")
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, metavar="N",
                   help=f"largest n considered in auto mode (default {DEFAULT_N_MAX})")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("scan", help="batch reports for a census file")
    p.add_argument("path", help="CSV (name,seifert header) or JSON-lines file")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="concurrent rows (output stays in input order)")
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, metavar="N",
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
    p.add_argument("--n", type=int, required=True, metavar="N",
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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(argv))
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (OSError, ValueError, TypeError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
