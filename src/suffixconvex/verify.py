"""Verification harness: measure every claimed complexity value and
compare against the closed forms.

The claims live in one table, ``witnesses.CLAIMS``: each record names
its formula, the exact dialect pair it calls for, the sizes to measure,
and the rows it excludes.  The row source, ``_rows``, yields a record's
rows, each with its dialect pair resolved and the reason it is not
measured, if any: the record's exclusion, or a size beyond its range.
The row measure, ``_measure``, is the one dispatch on the record's tag:
it measures a row through the operations and measures modules and takes
each expectation from the record's formula, an atom claim's once per
atom key.  An entry is SKIP when it has a reason, else PASS or FAIL.

One run builds each thing it measures once.  A memo that lives for one
``run_verification`` call holds the operands of the family being
measured by (family, n, dialect), with the report's label of each,
dropped when the family is done; every semigroup size by the witness's
letter images; and the direct product of each operand pair of the
boolean group being measured: the four boolean claims of one family and
mode read their operations from that one product, and it is dropped
when the group is done.  Every row still takes its own count (a reversal
row counts subsets with ``reverse_complexity``, no refinement), and a
full-witness row is labelled with the letters of the witness the
memo holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterator

from . import __version__
from .automata import Dfa, complexity, reachable_states, reverse_complexity
from .errors import InputError
from .measures import (
    DEFAULT_SEMIGROUP_CAP,
    atom_complexities,
    atoms,
    check_semigroup_cap,
    syntactic_semigroup_size,
)
from .operations import (
    _boolean_product,
    concat,
    format_letter_map,
    star,
)
from .witnesses import (
    CLAIMS,
    FAMILIES,
    MIN_N,
    Claim,
    make_dialect,
    make_witness,
)

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

@dataclass(frozen=True)
class ReportEntry:
    family: str
    quantity: str
    mode: str | None
    dialects: tuple[str, ...]
    m: int | None
    n: int
    expected: int | None
    measured: int | None
    status: str
    reason: str = ""


@dataclass(frozen=True)
class ComplexityReport:
    entries: tuple[ReportEntry, ...]
    passed: int
    failed: int
    skipped: int
    version: str

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _atom_items(witness: Dfa, claim: Claim, n: int) -> list[tuple[frozenset, int, int]]:
    """(definition key, measured complexity, formula value) per non-empty
    atom of the witness at n, the formula read from the atom claim.

    Keys from the canonically renumbered minimal DFA are mapped back to
    the definition's state numbering, where the formula case splits live.
    """
    order = reachable_states(witness)  # canonical index -> definition state
    items = []
    for key, measured in atom_complexities(witness).items():
        definition_key = frozenset(order[i] for i in key)
        items.append((definition_key, measured, claim.formula(n, definition_key)))
    return items


def _names(claim: Claim) -> set[str]:
    if claim.tag == "atom":
        return {"atom", "atom-complexity", "atom-complexities"}
    return {claim.tag, claim.quantity}


def _normalize_quantities(quantities) -> set[str] | None:
    if not quantities:
        return None
    known = set().union(*map(_names, CLAIMS))
    for q in quantities:
        if q not in known:
            raise InputError(f"unknown quantity {q!r}")
    return set(quantities)


def run_verification(
    families=None,
    quantities=None,
    n_range: tuple[int, int] | None = None,
    m_range: tuple[int, int] | None = None,
    semigroup_cap: int = DEFAULT_SEMIGROUP_CAP,
) -> ComplexityReport:
    """Measure the selected claims and compare against their formulas.

    Defaults run every claim at its configured resource range; requested
    values beyond a claim's range are reported as SKIP rather than
    attempted.  Claims without a range are never measured.  A
    semigroup_cap below 1 is rejected before anything is measured, and
    a selection that yields no row is rejected too.
    """
    check_semigroup_cap(semigroup_cap)
    if families:
        for f in families:
            if f not in FAMILIES:
                raise InputError(f"unknown family {f!r}")
    selected_q = _normalize_quantities(quantities)
    selected = [
        claim for claim in CLAIMS
        if (not families or claim.family in families)
        and (selected_q is None or _names(claim) & selected_q)
    ]
    memo = _Memo(semigroup_cap)
    entries: list[ReportEntry] = []
    # a family's claims are adjacent in CLAIMS, and so are the four
    # boolean claims of one of its modes
    for _, claims in groupby(selected, key=lambda claim: claim.family):
        for _, group in groupby(claims, key=lambda claim: claim.mode):
            for claim in group:
                for m, n, dialects, reason in _rows(claim, n_range, m_range):
                    sizes = (n,) if m is None else (m, n)
                    labels = tuple(memo.label(claim.family, size, d) for size, d in zip(sizes, dialects))
                    results = ([(claim.tag, None, None, reason)] if reason
                               else _measure(claim, m, n, dialects, memo))
                    for quantity, expected, measured, why in results:
                        status = SKIP if why else PASS if measured == expected else FAIL
                        entries.append(ReportEntry(claim.family, quantity, claim.mode, labels,
                                                   m, n, expected, measured, status, why))
            memo.products.clear()
        memo.operands.clear()
        memo.labels.clear()
    if not entries:
        raise InputError(
            f"no claim row matches families {families or 'all'}, "
            f"quantities {quantities or 'all'}, n range {n_range or 'default'} "
            f"and m range {m_range or 'default'}"
        )

    entries.sort(
        key=lambda e: (
            e.family,
            e.quantity,
            e.mode or "",
            e.m if e.m is not None else -1,
            e.n,
        )
    )
    passed = sum(1 for e in entries if e.status == PASS)
    failed = sum(1 for e in entries if e.status == FAIL)
    skipped = sum(1 for e in entries if e.status == SKIP)
    return ComplexityReport(tuple(entries), passed, failed, skipped, __version__)


def _rows(claim: Claim, n_range, m_range) -> Iterator[tuple]:
    """(m, n, dialects, reason) for each row of the claim in the requested
    ranges, the claim's own by default: m is None for a unary claim,
    dialects holds each operand's dialect (None for the full witness),
    and reason says why the row is not measured, or is "".  A claim
    without rows yields none."""
    if claim.rows is None:
        return

    def sizes(requested):
        lo, hi = requested or claim.rows
        return range(max(lo, MIN_N[claim.family]), hi + 1)

    binary = claim.mode is not None
    for n in sizes(n_range):
        for m in sizes(m_range) if binary else (None,):
            dialects = (claim.dialect1, claim.dialect2_at(m, n)) if binary else (claim.dialect1,)
            reason = claim.exclude(m, n)
            if not reason and max(n, m or 0) > claim.rows[1]:
                reason = "beyond the configured resource range"
            yield m, n, dialects, reason


class _Memo:
    """What one run_verification call builds once and reads many times."""

    def __init__(self, semigroup_cap: int):
        self.semigroup_cap = semigroup_cap
        self.operands: dict[tuple, Dfa] = {}
        self.labels: dict[tuple, str] = {}
        self.semigroups: dict[frozenset, tuple[int, bool]] = {}
        # (m, n, dialect pair) -> the pair's product; holds the products
        # of one family and mode only, so those are not in the key
        self.products: dict[tuple, Callable[[str], Dfa]] = {}

    def operand(self, family: str, n: int, dialect: tuple | None) -> Dfa:
        key = (family, n, dialect)
        d = self.operands.get(key)
        if d is None:
            d = make_witness(family, n) if dialect is None else make_dialect(family, n, dialect)
            self.operands[key] = d
        return d

    def label(self, family: str, n: int, dialect: tuple | None) -> str:
        """The report's name for an operand: its letter map, or the witness's letters."""
        key = (family, n, dialect)
        label = self.labels.get(key)
        if label is None:
            letters = self.operand(family, n, None).alphabet if dialect is None else dialect
            label = self.labels[key] = format_letter_map(letters)
        return label

    def semigroup(self, d: Dfa) -> tuple[int, bool]:
        # streams that share their letters share the semigroup
        key = frozenset(t.image for t in d.delta.values())
        if key not in self.semigroups:
            summary = syntactic_semigroup_size(d, self.semigroup_cap)
            self.semigroups[key] = (summary.size, summary.truncated)
        return self.semigroups[key]

    def pair(self, claim: Claim, m: int, n: int, dialects: tuple) -> tuple[Dfa, Dfa]:
        return self.operand(claim.family, m, dialects[0]), self.operand(claim.family, n, dialects[1])

    def product(self, claim: Claim, m: int, n: int, dialects: tuple) -> Callable[[str], Dfa]:
        key = (m, n, dialects)
        product = self.products.get(key)
        if product is None:
            product = self.products[key] = _boolean_product(*self.pair(claim, m, n, dialects), claim.mode)
        return product


_UNARY = {
    "reverse": reverse_complexity,
    "atoms-count": lambda d: len(atoms(d)),
    "star": lambda d: complexity(star(d)),
}


def _measure(claim: Claim, m: int | None, n: int, dialects: tuple, memo: _Memo) -> list:
    """(quantity, expected, measured, reason) for each entry of one row
    the claim includes; reason is "" for an entry that was measured."""
    tag = claim.tag
    if claim.mode is None:
        operand = memo.operand(claim.family, n, dialects[0])
        if tag == "atom":
            return [
                ("atom({" + ",".join(str(q) for q in sorted(key)) + "})", formula_v, measured_v, "")
                for key, measured_v, formula_v in _atom_items(operand, claim, n)
            ]
        if tag == "semigroup":
            measured_v, truncated = memo.semigroup(operand)
            if truncated:
                return [(tag, None, measured_v, "semigroup enumeration truncated at the cap")]
        else:
            measured_v = _UNARY[tag](operand)
    elif tag == "product":
        measured_v = complexity(concat(*memo.pair(claim, m, n, dialects)))
    else:
        measured_v = complexity(memo.product(claim, m, n, dialects)(tag))
    return [(tag, claim.formula(m, n), measured_v, "")]


def report_json_chunks(report: ComplexityReport) -> Iterator[str]:
    """The report's JSON document, ``json.dumps(doc, indent=2)`` and a
    newline, one entry per chunk, so a caller can write it out without
    holding it whole.  Each entry is encoded on its own and indented to
    its depth in the document, which is sound since an encoded string
    holds no raw newline."""
    encoder = json.JSONEncoder(indent=2)
    head = encoder.encode({
        "version": report.version,
        "passed": report.passed,
        "failed": report.failed,
        "skipped": report.skipped,
        "entries": [],
    })
    yield head[:-len("]\n}")]
    separator = "\n    "
    for e in report.entries:
        entry = {**vars(e), "pass": e.status == PASS}  # the fields in their order
        yield separator + encoder.encode(entry).replace("\n", "\n    ")
        separator = ",\n    "
    yield ("\n  ]" if report.entries else "]") + "\n}\n"


def report_to_table(report: ComplexityReport) -> str:
    headers = ("status", "family", "quantity", "mode", "m", "n", "expected", "measured", "dialects", "reason")
    rows = [headers]
    for e in report.entries:
        rows.append(
            (
                e.status,
                e.family,
                e.quantity,
                e.mode or "-",
                str(e.m) if e.m is not None else "-",
                str(e.n),
                str(e.expected) if e.expected is not None else "-",
                str(e.measured) if e.measured is not None else "-",
                " ".join(e.dialects),
                e.reason,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    summary = f"passed {report.passed}, failed {report.failed}, skipped {report.skipped} (tool {report.version})"
    return "\n".join(lines + [summary]) + "\n"
