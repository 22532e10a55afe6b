"""Witness DFA streams and the table of claims they meet.

Each family tag names one stream of minimal DFAs, one automaton per
state count n that names its letters once: as its transitions' keys.
``CLAIMS`` is the paper's table of results, one record per (family,
quantity, mode): the closed-form formula (per atom key for an atom
claim), the dialect pair of the witness stream that meets it, the range
of sizes the verification harness measures, and the rule for rows the
claim excludes.  The verification harness is the table's one reader:
it measures each row a record includes and compares the value with the
record's formula, which measures nothing itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .automata import Dfa
from .errors import InputError
from .operations import BOOL_OPS, LetterMap, apply_dialect, parse_letter_map
from .transformations import Transformation, compose_many, cycle, send_to

MIN_N = {
    "regular": 3,
    "left-ideal": 4,
    "left-ideal-alt": 4,
    "suffix-closed": 4,
    "suffix-free-5": 4,
    "suffix-free-n": 4,
    "suffix-free-3": 4,
    "suffix-free-2star": 6,
}
FAMILIES = tuple(MIN_N)


def _ideal_letters(n: int) -> dict[str, Transformation]:
    return {
        "a": cycle(n, list(range(1, n))),
        "b": cycle(n, [1, 2]),
        "c": send_to(n, [n - 1], 1),
        "d": send_to(n, [n - 1], 0),
        "e": send_to(n, range(n), 1),
    }


def _suffix_free_ab(n: int) -> dict[str, Transformation]:
    """The a and b that the suffix-free-5, -n and -3 streams share: both
    send 0 to the dead state n-1, a cycles 1..n-2 and b swaps 1 and 2."""
    to_last = send_to(n, [0], n - 1)
    return {
        "a": compose_many([to_last, cycle(n, list(range(1, n - 1)))]),
        "b": compose_many([to_last, cycle(n, [1, 2])]),
    }


def _suffix_free_5(n: int) -> Dfa:
    """The five-letter suffix-free automaton; at n=4 its a and b carry
    the same transformation."""
    delta = {
        **_suffix_free_ab(n),
        "c": compose_many([send_to(n, [0], n - 1), send_to(n, [n - 2], 1)]),
        "d": send_to(n, [0, 1], n - 1),
        "e": compose_many([send_to(n, range(1, n), n - 1), send_to(n, [0], 1)]),
    }
    finals = frozenset(q for q in range(1, n - 1) if q % 2 == 1)
    return Dfa(n, tuple(delta), delta, 0, finals)


def _maybe_cycle(n: int, states: list[int]) -> list[Transformation]:
    # a one-state "cycle" from a shrinking definition range is the identity
    return [cycle(n, states)] if len(states) >= 2 else []


def make_witness(family: str, n: int) -> Dfa:
    """The witness DFA of the given family at n states, letters in
    definition order."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; choose from {list(FAMILIES)}")
    if n < MIN_N[family]:
        raise InputError(f"family {family!r} needs n >= {MIN_N[family]}, got {n}")
    if family == "regular":
        delta = {
            "a": cycle(n, list(range(n))),
            "b": cycle(n, [0, 1]),
            "c": send_to(n, [n - 1], 0),
        }
        return Dfa(n, tuple(delta), delta, 0, frozenset({n - 1}))

    if family in ("left-ideal", "left-ideal-alt", "suffix-closed"):
        delta = _ideal_letters(n)
        finals = {
            "left-ideal": frozenset({n - 1}),
            "left-ideal-alt": frozenset(range(1, n)),
            "suffix-closed": frozenset({0}),
        }[family]
        return Dfa(n, tuple(delta), delta, 0, finals)

    if family == "suffix-free-5":
        # a and b carry one transformation at n=4, so the witness drops a
        if n == 4:
            return apply_dialect(_suffix_free_5(4), (None, "b", "c", "d", "e"))
        return _suffix_free_5(n)

    if family == "suffix-free-n":
        delta = _suffix_free_ab(n)
        for p in range(1, n - 1):
            delta[f"c{p}"] = compose_many([send_to(n, [p], n - 1), send_to(n, [0], p)])
        return Dfa(n, tuple(delta), delta, 0, frozenset({n - 2}))

    if family == "suffix-free-3":
        # c sends 1 to the dead state n-1 (which keeps its all-letter
        # self-loop) and 0 to 1; reading the first atom as a transposition
        # would make n-1 co-reachable and break suffix-freeness
        delta = {
            **_suffix_free_ab(n),
            "c": compose_many([send_to(n, [1], n - 1), send_to(n, [0], 1)]),
        }
        return Dfa(n, tuple(delta), delta, 0, frozenset({n - 2}))

    # suffix-free-2star; its c is the a of the other suffix-free streams
    to_last = send_to(n, [0], n - 1)
    delta = {
        "a": compose_many([to_last, cycle(n, [1, 2, 3])] + _maybe_cycle(n, list(range(4, n - 1)))),
        "b": compose_many(
            [send_to(n, [2], n - 1), send_to(n, [1], 2), send_to(n, [0], 1), cycle(n, [3, 4])]
        ),
        "c": _suffix_free_ab(n)["a"],
    }
    return Dfa(n, tuple(delta), delta, 0, frozenset({1}))


def make_dialect(family: str, n: int, pi: LetterMap) -> Dfa:
    """apply_dialect over the witness, positionally over the definition
    alphabet.

    For the five-letter suffix-free family at n=4 a five-entry map is
    applied to the unmerged automaton (whose first two letters carry the
    same transformation), so dialect tuples stay positionally uniform
    across the whole stream.
    """
    pi = tuple(pi)
    if family == "suffix-free-5" and n == 4 and len(pi) == 5:
        return apply_dialect(_suffix_free_5(n), pi)
    return apply_dialect(make_witness(family, n), pi)


def _includes_every_row(m: int | None, n: int) -> str:
    return ""


@dataclass(frozen=True)
class Claim:
    """One claimed bound and the witness rows that meet it.

    ``formula(m, n)`` is the claimed complexity; m is None unless the
    claim has a mode (the binary quantities).  An atom claim's is
    ``formula(n, key)``, the key naming the atom by the witness's states.
    The harness measures ``dialect1`` of the family's witness at n, or
    for a binary claim ``dialect1`` at m against ``dialect2_at(m, n)`` at
    n, for every size in ``rows``; a claim without rows is stated but
    never measured.  ``exclude(m, n)`` names why the claim leaves a row
    out, or is "".
    """

    family: str
    tag: str
    mode: str | None = None
    formula: Callable[[int | None, int], int] | Callable[[int, frozenset], int] | None = None
    dialect1: tuple | None = None  # None means the full witness
    dialect2: tuple | None = None
    rows: tuple[int, int] | None = None  # n, and m for a binary claim
    exclude: Callable[[int | None, int], str] = _includes_every_row
    dialect2_overrides: tuple = ()  # ((m, n), dialect) pairs

    @property
    def quantity(self) -> str:
        return f"{self.tag}-{self.mode}" if self.mode else self.tag

    def dialect2_at(self, m: int, n: int) -> tuple | None:
        return dict(self.dialect2_overrides).get((m, n), self.dialect2)


def _booleans(family, mode, formulas, dialect1, dialect2, rows=(4, 6), **kw) -> tuple:
    """The four boolean claims of one mode; formulas follow BOOL_OPS."""
    return tuple(
        Claim(family, op, mode, formula, dialect1, dialect2, rows, **kw)
        for op, formula in zip(BOOL_OPS, formulas)
    )


def atom_formula(language_class: str, n: int, key) -> int:
    """Closed-form atom complexity for the three witness classes."""
    s = frozenset(key)
    if not s <= frozenset(range(n)):
        raise InputError(f"atom key {sorted(s)} outside 0..{n - 1}")
    size = len(s)

    if language_class == "left-ideal":
        if size == n:
            return n
        if size == 0:
            return 2 ** (n - 1)
        return 1 + sum(
            math.comb(n - 1, x) * math.comb(n - x - 1, y - 1)
            for x in range(1, size + 1)
            for y in range(1, n - size + 1)
        )

    if language_class == "suffix-closed":
        if size == 0:
            return n
        if size == n:
            return 2 ** (n - 1)
        if 0 in s:
            return 1 + sum(
                math.comb(n - 1, y) * math.comb(n - y - 1, x - 1)
                for x in range(1, size + 1)
                for y in range(1, n - size + 1)
            )
        raise InputError(f"no suffix-closed atom formula for key {sorted(s)}")

    if language_class == "suffix-free":
        if size == 0:
            return 2 ** (n - 2) + 1
        if s == frozenset({0}):
            return n
        if s <= frozenset(range(1, n - 1)):
            return 1 + sum(
                math.comb(n - 2, x) * math.comb(n - 2 - x, y)
                for x in range(1, size + 1)
                for y in range(0, n - 2 - size + 1)
            )
        raise InputError(f"no suffix-free atom formula for key {sorted(s)}")

    raise InputError(
        f"unknown language class {language_class!r}; "
        "choose left-ideal, suffix-closed, or suffix-free"
    )


def _ideal(family, language_class, reverse_dialect, star_dialect, star_formula) -> tuple:
    """The unary claims shared by the left-ideal and suffix-closed streams;
    their atoms meet the formulas of language_class."""
    reverse = lambda m, n: 2 ** (n - 1) + 1
    return (
        Claim(family, "semigroup", formula=lambda m, n: n ** (n - 1) + n - 1, rows=(4, 7)),
        Claim(family, "reverse", formula=reverse, dialect1=reverse_dialect, rows=(4, 8)),
        Claim(family, "atoms-count", formula=reverse, dialect1=reverse_dialect, rows=(4, 8)),
        Claim(family, "atom", formula=partial(atom_formula, language_class), rows=(4, 6)),
        Claim(family, "star", formula=star_formula, dialect1=star_dialect, rows=(4, 8)),
    )


def _no_product_bound(m: int | None, n: int) -> str:
    return "the stream meets no product bound"


def _semigroup_from_6(m: int | None, n: int) -> str:
    return "the semigroup bound applies from n=6" if n < 6 else ""


def _boolean_pair_from_44(m: int | None, n: int) -> str:
    return "the three-letter boolean pair excludes (m,n)=(4,4)" if (m, n) == (4, 4) else ""


_MN = lambda m, n: m * n
_RESTRICTED = (_MN, _MN, _MN, _MN)
_UNION_UNRESTRICTED = lambda m, n: (m + 1) * (n + 1)
_UNRESTRICTED = (_UNION_UNRESTRICTED, _UNION_UNRESTRICTED, lambda m, n: m * n + m, _MN)
# restricted and unrestricted coincide: suffix-free languages always
# have an empty quotient
_SF_UNION = lambda m, n: m * n - (m + n - 2)
_SUFFIX_FREE = (
    _SF_UNION,
    _SF_UNION,
    lambda m, n: m * n - (m + 2 * n - 4),
    lambda m, n: m * n - 2 * (m + n - 3),
)
_SF_REVERSE = lambda m, n: 2 ** (n - 2) + 1
_SF3_PRODUCT = lambda m, n: (m - 1) * 2 ** (n - 2) + 1

_d = parse_letter_map
# no five-letter second dialect reaches the unrestricted boolean bounds
# of the ideal streams; this six-letter pattern meets them at every
# 4 <= m,n <= 6
_SIX_LETTER_PAIR = (_d("a,b,c,d,e"), _d("a,e,f,d,b"))
_SWAPPED_PAIR = (_d("a,b,-,d,e"), _d("a,e,-,d,b"))
# at (4,4) the letter-swapped operand equals the first one (a and b
# carry one transformation there), so the second dialect brings in the
# c transformation instead
_SF5_PAIR = (_d("a,b,-,d,e"), _d("b,a,-,d,e"))
_SF5_AT_44 = (((4, 4), _d("b,-,a,d,e")),)
_SF5_REVERSE = _d("a,-,c,-,e")
_SF3_PAIR = (None, _d("b,a,c"))

CLAIMS: tuple[Claim, ...] = (
    # the witness itself meets the unary bounds and the two-letter
    # permuted pair the restricted booleans; the product and unrestricted
    # boolean bounds have no rows
    Claim("regular", "semigroup", formula=lambda m, n: n**n, rows=(3, 6)),
    Claim("regular", "reverse", formula=lambda m, n: 2**n, rows=(3, 6)),
    Claim("regular", "star", formula=lambda m, n: 2 ** (n - 1) + 2 ** (n - 2), rows=(3, 6)),
    Claim("regular", "product", "restricted", lambda m, n: (m - 1) * 2**n + 2 ** (n - 1)),
    Claim("regular", "product", "unrestricted", lambda m, n: m * 2**n + 2 ** (n - 1)),
    *_booleans("regular", "restricted", _RESTRICTED, _d("a,b"), _d("b,a"), rows=(3, 5)),
    *_booleans("regular", "unrestricted", _UNRESTRICTED, None, None, rows=None),

    *_ideal("left-ideal", "left-ideal", _d("a,-,c,d,e"), _d("a,-,-,-,e"), lambda m, n: n + 1),
    Claim(
        "left-ideal", "product", "restricted", lambda m, n: m + n - 1,
        _d("a,-,-,-,e"), _d("a,-,-,-,e"), rows=(4, 6),
    ),
    Claim(
        "left-ideal", "product", "unrestricted", lambda m, n: m * n + m + n,
        _d("a,b,-,d,e"), _d("a,d,-,c,e"), rows=(4, 6),
    ),
    *_booleans("left-ideal", "restricted", _RESTRICTED, _d("a,-,c,-,e"), _d("a,-,e,-,c")),
    *_booleans("left-ideal", "unrestricted", _UNRESTRICTED, *_SIX_LETTER_PAIR),

    *_ideal("left-ideal-alt", "left-ideal", _d("a,-,-,d,e"), _d("a,-,-,d,e"), lambda m, n: n + 1),
    Claim("left-ideal-alt", "product", "restricted", rows=(4, 6), exclude=_no_product_bound),
    Claim("left-ideal-alt", "product", "unrestricted", rows=(4, 6), exclude=_no_product_bound),
    *_booleans("left-ideal-alt", "restricted", _RESTRICTED, *_SWAPPED_PAIR),
    *_booleans("left-ideal-alt", "unrestricted", _UNRESTRICTED, *_SIX_LETTER_PAIR),

    *_ideal("suffix-closed", "suffix-closed", _d("a,-,-,d,e"), _d("a,-,-,d,e"), lambda m, n: n),
    Claim(
        "suffix-closed", "product", "restricted", lambda m, n: m * n - n + 1,
        *_SWAPPED_PAIR, rows=(4, 6),
    ),
    Claim(
        "suffix-closed", "product", "unrestricted", lambda m, n: m * n + m + 1,
        *_SIX_LETTER_PAIR, rows=(4, 6),
    ),
    *_booleans("suffix-closed", "restricted", _RESTRICTED, *_SWAPPED_PAIR),
    *_booleans("suffix-closed", "unrestricted", _UNRESTRICTED, *_SIX_LETTER_PAIR),

    Claim(
        "suffix-free-5", "semigroup", formula=lambda m, n: (n - 1) ** (n - 2) + n - 2,
        rows=(4, 7), exclude=_semigroup_from_6,
    ),
    Claim("suffix-free-5", "reverse", formula=_SF_REVERSE, dialect1=_SF5_REVERSE, rows=(4, 8)),
    Claim("suffix-free-5", "atoms-count", formula=_SF_REVERSE, dialect1=_SF5_REVERSE, rows=(4, 8)),
    Claim("suffix-free-5", "atom", formula=partial(atom_formula, "suffix-free"), rows=(4, 6)),
    *_booleans(
        "suffix-free-5", "restricted", _SUFFIX_FREE, *_SF5_PAIR, dialect2_overrides=_SF5_AT_44
    ),
    *_booleans(
        "suffix-free-5", "unrestricted", _SUFFIX_FREE, *_SF5_PAIR, dialect2_overrides=_SF5_AT_44
    ),

    Claim("suffix-free-3", "star", formula=lambda m, n: 2 ** (n - 2) + 1, rows=(4, 8)),
    Claim("suffix-free-3", "product", "restricted", _SF3_PRODUCT, None, _d("c,a,b"), rows=(4, 6)),
    Claim("suffix-free-3", "product", "unrestricted", _SF3_PRODUCT, None, _d("c,a,b"), rows=(4, 6)),
    *_booleans(
        "suffix-free-3", "restricted", _SUFFIX_FREE, *_SF3_PAIR, exclude=_boolean_pair_from_44
    ),
    *_booleans(
        "suffix-free-3", "unrestricted", _SUFFIX_FREE, *_SF3_PAIR, exclude=_boolean_pair_from_44
    ),
)
