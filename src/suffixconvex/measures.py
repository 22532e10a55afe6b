"""Semigroup enumeration, quotient complexities, and atoms.

The transition semigroup is closed over transformations packed as bytes,
so composing with a letter is one ``bytes.translate``; this bounds the
DFA at 256 states.

Atom A_S is non-empty exactly when S = {q : qw is final} for some word w.
Those sets are the subsets reached by the subset construction on the
reversed DFA from the final states (Brzozowski and Tamm, "Theory of
atomata", 2014), so atoms are enumerated by ``automata._subsets`` on
the reversed transitions, the kernel that ``operations.reverse``
determinizes with, in time proportional to their number.

Atom complexity runs on the image-pair automaton: the quotient of A_S by
a word w is determined by the pair (Sw, S'w) where S' is the complement
of S, a pair is accepting when Sw lies inside the final states and S'w
avoids them, and a pair whose components overlap can never accept again
and is pruned to a sink.  Two atoms that reach the same pair share that
quotient and every one after it, so ``atom_complexities`` builds one pair
automaton per DFA, seeded with the start pair of every atom, and refines
it once; ``atom_automaton`` is the same kernel with one seed.

Sizes are counted, not built: the states of a minimal DFA, like the
classes of a refinement, are pairwise distinguishable, so a quotient's
complexity is the number of states of the minimal DFA reachable from it,
and an atom's is the number of classes of the shared pair automaton
reachable from its seed's class.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .automata import (
    Dfa,
    _class_of,
    _hopcroft,
    _minimal_size,
    _preimages,
    _subsets,
    _walk,
    minimize,
)
from .errors import InputError, LimitError

DEFAULT_SEMIGROUP_CAP = 2_000_000
DEFAULT_ATOM_STATE_LIMIT = 12
SEMIGROUP_STATE_BOUND = 256

AtomKey = frozenset


@dataclass(frozen=True)
class SemigroupSummary:
    """Size of a transformation semigroup; a truncated size is only a
    lower bound."""

    size: int
    truncated: bool


def check_semigroup_cap(cap: int) -> None:
    """Reject a semigroup cap below 1 with InputError."""
    if cap < 1:
        raise InputError(f"semigroup cap must be a positive integer, got {cap}")


def transition_semigroup(d: Dfa, cap: int = DEFAULT_SEMIGROUP_CAP) -> SemigroupSummary:
    """Closure of the letter transformations under composition.

    Breadth-first over words by length then alphabet order; stops early,
    flagging truncation, once cap distinct elements have been found and
    more exist; cap must be at least 1 (InputError otherwise).  Elements
    are stored as bytes, so d may have at most SEMIGROUP_STATE_BOUND
    states; a larger d raises LimitError.
    """
    check_semigroup_cap(cap)
    if d.n > SEMIGROUP_STATE_BOUND:
        raise LimitError(
            f"semigroup enumeration over {d.n} states exceeds the bound of "
            f"{SEMIGROUP_STATE_BOUND} states (elements are packed one byte per state)"
        )
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
    return SemigroupSummary(len(seen), truncated)


def syntactic_semigroup_size(d: Dfa, cap: int = DEFAULT_SEMIGROUP_CAP) -> SemigroupSummary:
    """Transition semigroup of the minimal DFA of L(d).

    The minimal DFA keeps d's full alphabet, letters that occur in no
    accepted word included, so L = a* over {a, b} has a semigroup of 2
    elements (the identity and the map to the sink) although
    ``automata.complexity`` gives it complexity 1.
    """
    return transition_semigroup(minimize(d), cap)


def quotient_complexities(d: Dfa) -> tuple[int, ...]:
    """Complexity of each state's language in the minimal DFA of L(d).

    Every quotient keeps the full alphabet of L (an empty quotient has
    complexity 1, not 0).  The states of the minimal DFA are pairwise
    distinguishable, so the part reachable from q is already the minimal
    DFA of the quotient, and its complexity is the number of those states.
    """
    m = minimize(d)
    images = [m.delta[letter].image for letter in m.alphabet]
    return tuple(len(_walk(m.n, images, q, ())[0]) for q in range(m.n))


def _atom_keys(m: Dfa, limit: int = DEFAULT_ATOM_STATE_LIMIT) -> frozenset[AtomKey]:
    """``atoms`` of the minimal DFA m, which it does not minimize again."""
    if m.n > limit:
        raise LimitError(f"atom enumeration over {m.n} states exceeds the limit {limit}")
    order, _ = _subsets(_preimages(m), sum(1 << q for q in m.finals))
    return frozenset(frozenset(q for q in range(m.n) if mask >> q & 1) for mask in order)


def atoms(d: Dfa, limit: int = DEFAULT_ATOM_STATE_LIMIT) -> frozenset[AtomKey]:
    """The subsets S of the minimal DFA's states whose atom is non-empty.

    The subset construction from S = F over the reversed transitions: the
    set for the word aw is {q : q.a in S}, where S is the set for w.
    """
    return _atom_keys(minimize(d), limit)


def _atom_pairs(
    m: Dfa, keys: Sequence[AtomKey]
) -> tuple[list[int], list[list[int]], frozenset[int]]:
    """The image-pair automaton shared by the atoms of the minimal DFA m
    named by keys.

    A pair (X, Y) of state sets is coded as the int X | Y << n.  The seeds
    (S, complement of S) are states 0.. in the order of keys, and the pairs
    reachable from them follow in BFS order, letters in alphabet order;
    overlapping pairs collapse into one sink, coded as ({0}, {0}), which
    overlaps again after every letter.  Returns (order, rows, finals), rows
    holding one image list per letter.
    """
    n = m.n
    full = (1 << n) - 1
    sink = 1 | 1 << n
    # steps[c][p]: the bit of p's image, in the X half for p < n, else in Y
    steps = []
    for letter in m.alphabet:
        image = m.delta[letter].image
        steps.append([1 << q for q in image] + [1 << q + n for q in image])
    order = []
    for key in keys:
        x = sum(1 << q for q in key)
        order.append(x | (full ^ x) << n)
    index = {code: i for i, code in enumerate(order)}
    rows: list[list[int]] = [[] for _ in steps]
    for code in order:  # the list grows while it is read: a FIFO queue
        members = []
        rest = code
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        for step, row in zip(steps, rows):
            target = 0
            for p in members:
                target |= step[p]
            if target & target >> n:  # X and Y overlap
                target = sink
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                order.append(target)
            row.append(j)
    # a pair accepts when X lies inside the finals and Y avoids them, which
    # no overlapping pair, the sink included, can do
    final_mask = sum(1 << q for q in m.finals)
    reject = (full ^ final_mask) | final_mask << n
    finals = frozenset(i for i, code in enumerate(order) if not code & reject)
    return order, rows, finals


def atom_automaton(m: Dfa, key) -> Dfa:
    """DFA recognizing the atom A_S of the minimal DFA m.

    m must be minimal (as ``minimize`` returns it): the key names its
    states.  States are the image pairs reachable from (S, complement of
    S), numbered as ``_atom_pairs`` numbers them with S the only seed;
    overlapping pairs collapse into one sink.  Rejects empty atoms.
    """
    s = frozenset(key)
    if not s <= frozenset(range(m.n)):
        raise InputError(f"atom key {sorted(s)} outside the minimal DFA's states")
    order, rows, finals = _atom_pairs(m, [s])
    if not finals:
        raise InputError(f"atom for key {sorted(s)} is empty")
    return Dfa._trusted(len(order), m.alphabet, rows, 0, finals)


def atom_complexity(d: Dfa, key) -> int:
    """Quotient complexity of the atom A_S of the minimal DFA of L(d),
    over the full alphabet."""
    return _minimal_size(atom_automaton(minimize(d), key))


def atom_complexities(d: Dfa) -> dict[AtomKey, int]:
    """atom_complexity of every non-empty atom (keyed as ``atoms`` keys
    them, under its default limit).

    d is minimized once and every atom is counted on one shared pair
    automaton with one refinement: its classes are distinct languages, so
    an atom's complexity is the number of classes reachable from its
    seed's class.
    """
    m = minimize(d)
    keys = list(_atom_keys(m))
    order, rows, finals = _atom_pairs(m, keys)
    blocks = _hopcroft(len(order), rows, finals)
    block_of = _class_of(len(order), blocks)
    # equivalent states move into one class, so any member stands for its class
    images = [[block_of[row[min(block)]] for block in blocks] for row in rows]
    # the seeds are states 0..len(keys)-1
    return {
        key: len(_walk(len(blocks), images, block_of[i], ())[0]) for i, key in enumerate(keys)
    }


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
