"""Semigroup enumeration, quotient complexities, and atoms.

The transition semigroup is closed over transformations packed as bytes,
so composing with a letter is one ``bytes.translate``; this bounds the
DFA at 256 states.

Atom A_S is non-empty exactly when S = {q : qw is final} for some word w.
Those sets are the subsets reached by the subset construction on the
reversed DFA from the final states (Brzozowski and Tamm, "Theory of
atomata", 2014), so atoms are enumerated by one breadth-first search in
time proportional to their number.

Atom complexity runs on the image-pair automaton: the quotient of A_S by
a word w is determined by the pair (Sw, S'w) where S' is the complement
of S, a pair is accepting when Sw lies inside the final states and S'w
avoids them, and a pair whose components overlap can never accept again
and is pruned to a sink.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

from .automata import Dfa, minimize
from .errors import InputError, LimitError
from .transformations import Transformation

DEFAULT_SEMIGROUP_CAP = 2_000_000
DEFAULT_ATOM_STATE_LIMIT = 12
SEMIGROUP_STATE_BOUND = 256

AtomKey = frozenset


@dataclass(frozen=True)
class SemigroupSummary:
    """Size of a transformation semigroup; a truncated size is only a
    lower bound."""

    size: int
    generators: dict[str, Transformation]
    truncated: bool


def transition_semigroup(d: Dfa, cap: int = DEFAULT_SEMIGROUP_CAP) -> SemigroupSummary:
    """Closure of the letter transformations under composition.

    Breadth-first over words by length then alphabet order; stops early,
    flagging truncation, once cap distinct elements have been found and
    more exist.  Elements are stored as bytes, so d may have at most
    SEMIGROUP_STATE_BOUND states; a larger d raises LimitError.
    """
    if d.n > SEMIGROUP_STATE_BOUND:
        raise LimitError(
            f"semigroup enumeration over {d.n} states exceeds the bound of "
            f"{SEMIGROUP_STATE_BOUND} states (elements are packed one byte per state)"
        )
    generators = {letter: d.delta[letter] for letter in d.alphabet}
    gen_images = [bytes(d.delta[letter].image) for letter in d.alphabet]
    # translate(table) maps each state q of an element to gen(q)
    tables = [image + bytes(256 - d.n) for image in gen_images]
    seen: set[bytes] = set()
    queue: deque[bytes] = deque()
    truncated = False
    for image in gen_images:
        if image not in seen:
            seen.add(image)
            queue.append(image)
    while queue and not truncated:
        current = queue.popleft()
        for table in tables:
            composed = current.translate(table)
            if composed in seen:
                continue
            if len(seen) >= cap:
                truncated = True
                break
            seen.add(composed)
            queue.append(composed)
    return SemigroupSummary(len(seen), generators, truncated)


def syntactic_semigroup_size(d: Dfa, cap: int = DEFAULT_SEMIGROUP_CAP) -> SemigroupSummary:
    """Transition semigroup of the minimal DFA of L(d)."""
    return transition_semigroup(minimize(d), cap)


def quotient_complexities(d: Dfa) -> tuple[int, ...]:
    """Complexity of each state's language in the minimal DFA of L(d).

    Every quotient keeps the full alphabet of L (an empty quotient has
    complexity 1, not 0).
    """
    m = minimize(d)
    return tuple(minimize(replace(m, initial=q)).n for q in range(m.n))


def atoms(d: Dfa, limit: int = DEFAULT_ATOM_STATE_LIMIT) -> frozenset[AtomKey]:
    """The subsets S of the minimal DFA's states whose atom is non-empty.

    Breadth-first from S = F over the reversed transitions: the set for
    the word aw is {q : q.a in S}, where S is the set for w.
    """
    m = minimize(d)
    if m.n > limit:
        raise LimitError(f"atom enumeration over {m.n} states exceeds the limit {limit}")
    # preimages[letter][q]: bitmask of the states p with p.letter = q
    preimages = []
    for letter in m.alphabet:
        pre = [0] * m.n
        for p, q in enumerate(m.delta[letter].image):
            pre[q] |= 1 << p
        preimages.append(pre)
    start = sum(1 << q for q in m.finals)
    seen = {start}
    queue = deque([start])
    while queue:
        mask = queue.popleft()
        members = [q for q in range(m.n) if mask >> q & 1]
        for pre in preimages:
            nxt = 0
            for q in members:
                nxt |= pre[q]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(frozenset(q for q in range(m.n) if mask >> q & 1) for mask in seen)


def atom_automaton(d: Dfa, key) -> Dfa:
    """DFA recognizing the atom A_S over the minimal DFA of L(d).

    States are the image pairs reachable from (S, complement of S), held
    as bitmasks; overlapping pairs collapse into one sink.  Rejects empty
    atoms.
    """
    m = minimize(d)
    s = frozenset(key)
    if not s <= frozenset(range(m.n)):
        raise InputError(f"atom key {sorted(s)} outside the minimal DFA's states")
    # bits[letter][q]: the bitmask of q.letter
    bits = [[1 << q for q in m.delta[letter].image] for letter in m.alphabet]
    x = sum(1 << q for q in s)
    start = (x, (1 << m.n) - 1 - x)
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in m.alphabet]
    pos = 0
    while pos < len(order):
        pair = order[pos]
        pos += 1
        if pair is None:  # sink
            for row in rows:
                row.append(index[None])
            continue
        xs = [q for q in range(m.n) if pair[0] >> q & 1]
        ys = [q for q in range(m.n) if pair[1] >> q & 1]
        for letter_bits, row in zip(bits, rows):
            nx = ny = 0
            for q in xs:
                nx |= letter_bits[q]
            for q in ys:
                ny |= letter_bits[q]
            nxt = (nx, ny) if not nx & ny else None
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
    # a pair accepts when Sw lies inside the finals and S'w avoids them
    final_mask = sum(1 << q for q in m.finals)
    finals = frozenset(
        i for i, pair in enumerate(order)
        if pair is not None and not pair[0] & ~final_mask and not pair[1] & final_mask
    )
    if not finals:
        raise InputError(f"atom for key {sorted(s)} is empty")
    delta = {letter: Transformation(tuple(row)) for letter, row in zip(m.alphabet, rows)}
    return Dfa(len(order), m.alphabet, delta, 0, finals)


def atom_complexity(d: Dfa, key) -> int:
    """Quotient complexity of the atom A_S."""
    return minimize(atom_automaton(d, key)).n


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
