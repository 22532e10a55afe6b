"""Command-line interface.

Exit codes: 0 on success (verify: all comparisons pass), 1 when a
verification comparison fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .automata import complexity, reverse_complexity
from .classifiers import classify
from .errors import InputError, LimitError
from .measures import (
    DEFAULT_SEMIGROUP_CAP,
    atom_complexities,
    atoms,
    quotient_complexities,
    syntactic_semigroup_size,
)
from .operations import (
    BOOL_OPS,
    boolean_restricted,
    boolean_unrestricted,
    complement,
    concat,
    format_letter_map,
    parse_letter_map,
    reverse,
    star,
)
from .serialization import export_dot, read_dfa, write_dfa
from .verify import report_json_chunks, report_to_table, run_verification
from .witnesses import FAMILIES, make_dialect, make_witness


def _read(path: str):
    with open(path, encoding="utf-8") as handle:
        return read_dfa(handle.read())


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_witness(args) -> int:
    if args.dialect:
        letter_map = parse_letter_map(args.dialect)
        dfa = make_dialect(args.family, args.n, letter_map)
        name = f"{args.family}-{args.n}{format_letter_map(letter_map)}"
    else:
        dfa = make_witness(args.family, args.n)
        name = f"{args.family}-{args.n}"
    _emit(write_dfa(dfa, name=name), args.output)
    return 0


def _cmd_op(args) -> int:
    d1 = _read(args.file)
    if args.operation in BOOL_OPS + ("concat",):
        if args.file2 is None:
            raise InputError(f"operation {args.operation!r} needs two automata")
        d2 = _read(args.file2)
        if args.operation == "concat":
            result = concat(d1, d2)
        elif args.unrestricted:
            result = boolean_unrestricted(d1, d2, args.operation)
        else:
            result = boolean_restricted(d1, d2, args.operation)
    else:
        if args.file2 is not None:
            raise InputError(f"operation {args.operation!r} takes one automaton")
        if args.unrestricted:
            raise InputError(f"operation {args.operation!r} has no unrestricted mode")
        result = {"star": star, "reverse": reverse, "complement": complement}[args.operation](d1)
    _emit(write_dfa(result, name=args.operation), None)
    return 0


def _cmd_measure(args) -> int:
    what = args.measurement
    if args.cap is not None and what != "semigroup":
        raise InputError(f"--cap applies to the semigroup measurement only, not {what!r}")
    dfa = _read(args.file)
    if what == "complexity":
        payload = {"complexity": complexity(dfa)}
    elif what == "semigroup":
        cap = DEFAULT_SEMIGROUP_CAP if args.cap is None else args.cap
        summary = syntactic_semigroup_size(dfa, cap)
        payload = {"semigroup_size": summary.size, "truncated": summary.truncated}
    elif what == "quotients":
        payload = {"quotient_complexities": list(quotient_complexities(dfa))}
    elif what == "atoms":
        payload = {"atoms": [sorted(key) for key in sorted(atoms(dfa), key=lambda s: (len(s), sorted(s)))]}
    elif what == "atom-complexities":
        measured = atom_complexities(dfa)
        keys = sorted(measured, key=lambda s: (len(s), sorted(s)))
        payload = {
            "atom_complexities": [
                {"atom": sorted(key), "complexity": measured[key]} for key in keys
            ]
        }
    else:  # reverse-complexity
        payload = {"reverse_complexity": reverse_complexity(dfa)}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_classify(args) -> int:
    report = classify(_read(args.file))
    payload = {
        "is_left_ideal": report.is_left_ideal,
        "is_suffix_closed": report.is_suffix_closed,
        "is_suffix_free": report.is_suffix_free,
        "is_suffix_convex": report.is_suffix_convex,
        "counterexamples": {tag: list(word) for tag, word in sorted(report.counterexamples.items())},
    }
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_dot(args) -> int:
    sys.stdout.write(export_dot(_read(args.file)))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        bounds = (int(lo), int(hi))
    except ValueError:
        raise InputError(f"range {text!r} is not of the form A..B") from None
    if bounds[0] > bounds[1]:
        raise InputError(f"range {text!r} is empty")
    return bounds


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _cmd_verify(args) -> int:
    report = run_verification(
        families=args.family or None,
        quantities=args.quantity or None,
        n_range=_parse_range(args.n) if args.n else None,
        m_range=_parse_range(args.m) if args.m else None,
        semigroup_cap=args.cap,
    )
    if args.format == "structured":
        chunks = report_json_chunks(report)  # written as encoded, never joined
    else:
        chunks = [report_to_table(report)]
    with open(args.report, "w", encoding="utf-8") if args.report else contextlib.nullcontext() as copy:
        for chunk in chunks:
            sys.stdout.write(chunk)
            if copy:
                copy.write(chunk)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suffixconvex",
        description="Witness automata, measured operations, and bound verification "
        "for suffix-convex language classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="emit a witness DFA document")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("--dialect", help="letter map, e.g. a,-,-,d,e")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("op", help="apply an operation to DFA documents")
    p.add_argument("operation", choices=BOOL_OPS + ("concat", "star", "reverse", "complement"))
    p.add_argument("file")
    p.add_argument("file2", nargs="?")
    p.add_argument(
        "--unrestricted",
        action="store_true",
        help="boolean operations only: read both operands over the union alphabet, "
        "a letter one lacks leading to its sink (concat always works over the union alphabet)",
    )
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("measure", help="measure a DFA document")
    p.add_argument(
        "measurement",
        choices=("complexity", "semigroup", "quotients", "atoms", "atom-complexities", "reverse-complexity"),
    )
    p.add_argument("file")
    p.add_argument(
        "--cap",
        type=_positive_int,
        help="semigroup only: stop counting past this many elements and report "
        f"the size as truncated (default {DEFAULT_SEMIGROUP_CAP})",
    )
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("classify", help="report language-class membership")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dot", help="emit GraphViz DOT")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("verify", help="reproduce the complexity claims")
    p.add_argument("--family", action="append", choices=FAMILIES)
    p.add_argument("--quantity", action="append")
    p.add_argument("--n", help="state-count range A..B for the second operand")
    p.add_argument("--m", help="state-count range A..B for the first operand")
    p.add_argument("--report", help="also write the output to this file")
    p.add_argument("--format", choices=("table", "structured"), default="table")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_SEMIGROUP_CAP)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, LimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
