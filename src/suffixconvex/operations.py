"""The measured operations: dialects, boolean operations, product, star,
reversal, complement, and language equivalence.

Concatenation, star and reversal hand their nondeterministic moves to
``automata.determinize`` as bitmask steps, epsilon moves folded in.  The
direct product is built here only: one pair search per operand pair
(``_product``, operands sink-completed over the union alphabet when
unrestricted) serves the four boolean operations and ``equivalent``.
Operation outputs are trimmed to reachable states but never minimized
here; ``automata.complexity`` is the single place where minimization
and occurring-letter reduction happen, so tests can inspect the raw
constructions.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .automata import Dfa, _preimages, complete_over, determinize, union_alphabet
from .errors import InputError

_TRUTH = {
    "union": lambda a, b: a or b,
    "symdiff": lambda a, b: a != b,
    "difference": lambda a, b: a and not b,
    "intersection": lambda a, b: a and b,
}
BOOL_OPS = tuple(_TRUTH)

DELETED = None  # dialect entry for a deleted letter

LetterMap = Sequence[str | None]


def parse_letter_map(text: str) -> tuple[str | None, ...]:
    """Parse a dialect tuple like "a,-,-,d,e" (optionally parenthesized)."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    entries = [part.strip() for part in text.split(",")]
    return tuple(DELETED if e in ("-", "") else e for e in entries)


def format_letter_map(pi: LetterMap) -> str:
    return "(" + ",".join("-" if e is DELETED else e for e in pi) + ")"


def apply_dialect(d: Dfa, pi: LetterMap) -> Dfa:
    """Rename or delete letters positionally over d's alphabet order.

    The k-th alphabet letter maps to the k-th entry of pi; trailing
    omissions delete.  Deleting a letter removes its transitions, so the
    language becomes the words of L(d) that avoid it, renamed letterwise.
    """
    pi = tuple(pi)
    if len(pi) > len(d.alphabet):
        raise InputError(f"dialect has {len(pi)} entries for {len(d.alphabet)} letters")
    pi = pi + (DELETED,) * (len(d.alphabet) - len(pi))
    defined = [t for t in pi if t is not DELETED]
    if len(set(defined)) != len(defined):
        raise InputError(f"dialect targets {defined} are not injective")
    alphabet = tuple(defined)
    delta = {
        target: d.delta[source]
        for source, target in zip(d.alphabet, pi)
        if target is not DELETED
    }
    return Dfa(d.n, alphabet, delta, d.initial, d.finals)


def _product(d1: Dfa, d2: Dfa) -> Callable[[str], Dfa]:
    """Reachable part of the direct product; alphabets must agree as sets.

    The pair BFS runs once; the result maps a boolean operation to the
    product accepting by it, so the four operations of one operand pair
    share one construction.  The pair (p, q) is coded as the int
    p * d2.n + q.
    """
    sigma = d1.alphabet
    n2 = d2.n
    images = [(d1.delta[l].image, d2.delta[l].image) for l in sigma]
    start = d1.initial * n2 + d2.initial
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in sigma]
    for code in order:  # the list grows while it is read: a FIFO queue
        p, q = divmod(code, n2)
        for (image1, image2), row in zip(images, rows):
            target = image1[p] * n2 + image2[q]
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                order.append(target)
            row.append(j)
    finals1, finals2 = d1.finals, d2.finals

    def with_finals(op: str) -> Dfa:
        decide = _TRUTH[op]
        finals = frozenset(
            i for i, code in enumerate(order)
            if decide(code // n2 in finals1, code % n2 in finals2)
        )
        return Dfa._trusted(len(order), sigma, rows, 0, finals)

    return with_finals


def _boolean_product(d1: Dfa, d2: Dfa, mode: str) -> Callable[[str], Dfa]:
    """``_product`` of the operands as the mode reads them: restricted
    operands must share their letters, unrestricted ones are
    sink-completed over the union alphabet."""
    if mode == "restricted":
        if set(d1.alphabet) != set(d2.alphabet):
            raise InputError(
                f"alphabets {list(d1.alphabet)} and {list(d2.alphabet)} differ; "
                "use the unrestricted mode"
            )
        return _product(d1, d2)
    sigma = union_alphabet(d1, d2)
    return _product(complete_over(d1, sigma), complete_over(d2, sigma))


def _check_op(op: str) -> None:
    if op not in BOOL_OPS:
        raise InputError(f"unknown boolean operation {op!r}")


def boolean_restricted(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """Direct-product boolean operation for operands over one alphabet.

    The two alphabets must contain the same letters (their orders may
    differ; transitions are aligned by letter name).
    """
    _check_op(op)
    return _boolean_product(d1, d2, "restricted")(op)


def boolean_unrestricted(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """Boolean operation over the union alphabet, sink-completing each side."""
    _check_op(op)
    return _boolean_product(d1, d2, "unrestricted")(op)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality, over the union alphabet when alphabets differ:
    no reachable pair of the product accepts by the symmetric difference."""
    return not _boolean_product(d1, d2, "unrestricted")("symdiff").finals


def concat(d1: Dfa, d2: Dfa) -> Dfa:
    """Product (concatenation) by the subset construction on the
    epsilon-NFA.

    Both automata sit side by side over the union alphabet, d2's states
    shifted by d1.n; letters missing on one side simply contribute no
    moves there.  The epsilon move from each final state of d1 to d2's
    initial state is folded in: a step or start that reaches a final
    state of d1 also reaches d2's initial state.
    """
    sigma = union_alphabet(d1, d2)
    shift = d1.n
    entry = 1 << (d2.initial + shift)
    # closed[q]: q with its epsilon move into d2
    closed = [1 << q | (entry if q in d1.finals else 0) for q in range(d1.n)]
    steps = []
    for letter in sigma:
        t1, t2 = d1.delta.get(letter), d2.delta.get(letter)
        row = [closed[q] for q in t1.image] if t1 is not None else [0] * d1.n
        row += [1 << (q + shift) for q in t2.image] if t2 is not None else [0] * d2.n
        steps.append(row)
    accepting = sum(1 << (f + shift) for f in d2.finals)
    return determinize(sigma, steps, closed[d1.initial], accepting)


def star(d: Dfa) -> Dfa:
    """Kleene star: new final initial state n copying the old initial's
    outgoing moves, epsilon moves from old finals back to it (folded in:
    a step into a final state also reaches n)."""
    fresh = 1 << d.n
    closed = [1 << q | (fresh if q in d.finals else 0) for q in range(d.n)]
    steps = []
    for letter in d.alphabet:
        image = d.delta[letter].image
        steps.append([closed[q] for q in image] + [closed[image[d.initial]]])
    return determinize(d.alphabet, steps, fresh, sum(1 << f for f in d.finals) | fresh)


def reverse(d: Dfa) -> Dfa:
    """Language reversal: flip every transition, swap initial and finals,
    determinize."""
    start = sum(1 << f for f in d.finals)
    return determinize(d.alphabet, _preimages(d), start, 1 << d.initial)


def complement(d: Dfa) -> Dfa:
    return Dfa(d.n, d.alphabet, dict(d.delta), d.initial, frozenset(range(d.n)) - d.finals)
