"""Semigroup sizes, quotient complexities, and atoms.

The transition semigroup is counted by its R-classes, never listing its
elements (Linton, Pfeiffer, Robertson and Ruškuc, "Groups and actions in
transformation semigroups", 1998; East, Egri-Nagy, Mitchell and Péresse,
"Computing finite semigroups", 2019).  The image sets of the elements form
one orbit under the letters, split into strongly connected components by
``automata._components``; an R-class whose image lies in component K
holds |K| x |G| elements, where G, the Schützenberger group of K, comes
from Schreier generators and its order from a deterministic Schreier–Sims
stabilizer chain.  R-classes are reached from the letters by left
multiplication and told apart by their H-class at one image of K, made
canonical modulo G: its kernel and the least element of a coset of G,
read off the chain.  So the cost follows the number of R-classes, not of
elements.  Elements are bytes composed with ``bytes.translate``, which
bounds the DFA at 256 states.  A cap stops the count where a
breadth-first closure stopped at cap elements would: with C the larger of
the cap and the number of distinct letters, the size is exact up to C and
reads C, truncated, above it.  The count stops as soon as the orbit or
the running sum exceeds C, and the chain of a component K as soon as the
part of G it has found exceeds C / |K|, since the first R-class of K
then passes C; so no step lists more than 2C things.

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
it once.  ``atom_automaton`` is the same kernel with one seed, and
``atom_complexity`` counts the classes of that one-seed automaton.

Sizes are counted, not built: the states of a minimal DFA, like the
classes of a refinement, are pairwise distinguishable, so a quotient's
complexity is the number of states of the minimal DFA reachable from it,
and an atom's is the number of classes of the shared pair automaton
reachable from its seed's class.  ``automata._reach_counts`` gives both
for every state at once, from one pass over the strongly connected
components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import (
    Dfa,
    _class_rows,
    _components,
    _hopcroft,
    _preimages,
    _reach_counts,
    _subsets,
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


_IDENTITY = bytes(range(256))


class _OrderPassed(Exception):
    """Unwinds ``_stabilizer_chain`` once its group is known to pass its bound."""


def _stabilizer_chain(gens: Iterable[bytes], bound: float) -> list[dict[int, tuple[bytes, bytes]]]:
    """Stabilizer chain, with base 0, 1, 2, .., of the permutation group G
    that gens generate, or a part of it whose size already passes bound.

    A permutation is a 256-byte ``bytes.translate`` table, p[x] the image
    of x, and "p, then q" is p.translate(q).  Level j of the chain maps
    each point x of the orbit of j under G_j, the pointwise stabilizer of
    0..j-1 in G, to a pair (u, u^-1) with u in G_j and u[j] = x.  The
    chain stops before the first j whose G_j is trivial, and |G| is the
    product of the levels' sizes.

    Deterministic Schreier–Sims (Sims, "Computational methods in the study
    of permutation groups", 1970): a permutation joins a level's
    generators only when it does not sift through the chain from that
    level down, and every Schreier generator of a level joins the next
    level the same way, so by Schreier's lemma each level below the first
    generates the stabilizer of the one above.

    Orbits only grow, so the product of the levels' sizes is a lower bound
    on |G| all along; the construction stops as soon as it exceeds bound,
    and then the product of the returned levels exceeds bound too.
    """
    chain: list[tuple[list[bytes], dict[int, tuple[bytes, bytes]]]] = []
    order = 1  # the product of the levels' sizes

    def extend(j: int, g: bytes) -> None:
        nonlocal order
        h = g
        for i in range(j, len(chain)):
            pair = chain[i][1].get(h[i])
            if pair is None:
                break
            h = h.translate(pair[1])
        else:
            if h == _IDENTITY:  # g is already in G_j
                return
        if j == len(chain):
            chain.append(([], {j: (_IDENTITY, _IDENTITY)}))
        level_gens, transversal = chain[j]
        level_gens.append(g)
        # every point with the new generator, and every new point with all
        points = list(transversal)
        old = len(points)
        for i, x in enumerate(points):  # the list grows while it is read
            u = transversal[x][0]
            for s in level_gens if i >= old else (g,):
                us = u.translate(s)
                y = us[j]
                pair = transversal.get(y)
                if pair is None:
                    order = order // len(transversal) * (len(transversal) + 1)
                    transversal[y] = (us, bytes.maketrans(us, _IDENTITY))
                    points.append(y)
                    if order > bound:
                        raise _OrderPassed
                else:
                    extend(j + 1, us.translate(pair[1]))

    try:
        for g in gens:
            extend(0, g)
    except _OrderPassed:
        pass
    return [transversal for _, transversal in chain]


def _least_in_coset(chain: Sequence[dict[int, tuple[bytes, bytes]]], tau: bytes) -> bytes:
    """The least of the tables u.translate(tau), u in the group of chain,
    compared byte by byte: position j takes the least tau[x] over the
    orbit of j under G_j, which fixes the positions before it."""
    for transversal in chain:
        if len(transversal) > 1:
            tau = transversal[min(transversal, key=tau.__getitem__)][0].translate(tau)
    return tau


def transition_semigroup(d: Dfa, cap: int = DEFAULT_SEMIGROUP_CAP) -> SemigroupSummary:
    """Size of the semigroup S that the letter transformations generate,
    counted one R-class at a time (see the module docstring).

    With C = max(cap, number of distinct letter transformations), returns
    (|S|, False) when |S| <= C and (C, True) otherwise: where a
    breadth-first closure that keeps every letter and stops at cap
    elements would stop.  cap must be at least 1 (InputError otherwise).
    d may have at most SEMIGROUP_STATE_BOUND states; a larger d raises
    LimitError.
    """
    check_semigroup_cap(cap)
    if d.n > SEMIGROUP_STATE_BOUND:
        raise LimitError(
            f"semigroup enumeration over {d.n} states exceeds the bound of "
            f"{SEMIGROUP_STATE_BOUND} states (elements are packed one byte per state)"
        )
    gens = list(dict.fromkeys(bytes(d.delta[letter].image) for letter in d.alphabet))
    limit = max(cap, len(gens))
    pad = bytes(256 - d.n)

    # the orbit of image sets, each the image of a distinct element; a set
    # is keyed by its complement, states.translate(None, points)
    states = _IDENTITY[: d.n]
    index: dict[bytes, int] = {}
    sets: list[bytes] = []  # a sequence of each image set's points, repeats allowed
    for g in gens:
        image = states.translate(None, g)
        if image not in index:
            index[image] = len(sets)
            sets.append(g)
    rows: list[list[int]] = [[] for _ in gens]
    # (table, row) per letter: s.translate(table) is "s, then the letter"
    letters = [(g + pad, row) for g, row in zip(gens, rows)]
    for points in sets:  # the list grows while it is read: a FIFO queue
        for table, row in letters:
            moved = points.translate(table)
            image = states.translate(None, moved)
            j = index.get(image)
            if j is None:
                j = index[image] = len(sets)
                sets.append(moved)
            row.append(j)
        if len(sets) > limit:
            return SemigroupSummary(limit, True)
    count, comp = _components(len(sets), rows)

    # per component: (R-class size, stabilizer chain of G, keys of the
    # R-classes found); per image set: the table onto its component's labels
    # 0..m-1
    classes: list = [None] * count
    relabel: list = [None] * len(sets)

    def component(i: int) -> tuple:
        c = comp[i]
        points = bytes(dict.fromkeys(sets[i]))
        m = len(points)
        labels = _IDENTITY[:m]
        points_of = {i: points}  # points_of[b][x]: the point of b labelled x
        walk = [i]
        edges = []  # (b, letter table, target) inside the component
        for b in walk:  # the list grows while it is read: a FIFO queue
            for table, row in letters:
                t = row[b]
                if comp[t] == c:
                    edges.append((b, table, t))
                    if t not in points_of:
                        points_of[t] = points_of[b].translate(table)
                        walk.append(t)
        for b, points in points_of.items():
            relabel[b] = bytes.maketrans(points, labels)
        # Schreier generators: to b, along a letter, and back from its target
        perms = dict.fromkeys(
            points_of[b].translate(table).translate(relabel[t]) for b, table, t in edges
        )
        perms.pop(labels, None)
        tail = _IDENTITY[m:]
        # past limit // len(walk), the first R-class here passes limit
        chain = _stabilizer_chain([p + tail for p in perms], limit // len(walk))
        classes[c] = (len(walk) * math.prod(map(len, chain)), chain, set())
        return classes[c]

    # every element is a letter or a letter, then an element, so left
    # multiplication of the R-classes found by the letters reaches them all
    reps: list[bytes] = []
    total = 0
    candidates = gens
    done = 0  # reps[:done] have been multiplied by the letters
    while True:
        for f in candidates:
            i = index[states.translate(None, f)]
            size, chain, keys = classes[comp[i]] or component(i)
            # f at the component's labels is its kernel (the labels in order
            # of first appearance), then a permutation sigma; two such are
            # R-related exactly when their kernels agree and their sigma^-1
            # lie in one coset G·tau
            h = f.translate(relabel[i])
            first = bytes(dict.fromkeys(h))
            tau = bytes.maketrans(first, _IDENTITY[: len(first)])
            key = h.translate(tau) + _least_in_coset(chain, tau)[: len(first)]
            if key not in keys:
                keys.add(key)
                reps.append(f)
                total += size
                if total > limit:
                    return SemigroupSummary(limit, True)
        if done == len(reps):
            return SemigroupSummary(total, False)
        then_rep = reps[done] + pad
        done += 1
        candidates = [g.translate(then_rep) for g in gens]


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
    return tuple(_reach_counts(m.n, [m.delta[letter].image for letter in m.alphabet]))


def _atom_keys(m: Dfa, limit: int = DEFAULT_ATOM_STATE_LIMIT) -> frozenset[AtomKey]:
    """``atoms`` of the minimal DFA m, which it does not minimize again."""
    if m.n > limit:
        raise LimitError(f"atom enumeration over {m.n} states exceeds the limit {limit}")
    steps = _preimages(m.n, [m.delta[letter].image for letter in m.alphabet])
    order, _ = _subsets(steps, sum(1 << q for q in m.finals))
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


def _atom_seed(m: Dfa, key) -> tuple[list[int], list[list[int]], frozenset[int]]:
    """``_atom_pairs`` of the minimal DFA m with key as its only seed;
    rejects a key outside m's states and an empty atom."""
    s = frozenset(key)
    if not s <= frozenset(range(m.n)):
        raise InputError(f"atom key {sorted(s)} outside the minimal DFA's states")
    order, rows, finals = _atom_pairs(m, [s])
    if not finals:
        raise InputError(f"atom for key {sorted(s)} is empty")
    return order, rows, finals


def atom_automaton(m: Dfa, key) -> Dfa:
    """DFA recognizing the atom A_S of the minimal DFA m.

    m must be minimal (as ``minimize`` returns it): the key names its
    states.  States are the image pairs reachable from (S, complement of
    S), numbered as ``_atom_pairs`` numbers them with S the only seed;
    overlapping pairs collapse into one sink.  Rejects empty atoms.
    """
    order, rows, finals = _atom_seed(m, key)
    return Dfa._trusted(len(order), m.alphabet, rows, 0, finals)


def atom_complexity(d: Dfa, key) -> int:
    """Quotient complexity of the atom A_S of the minimal DFA of L(d),
    over the full alphabet: the classes of one refinement of the one-seed
    pair automaton, every pair of which is reachable from the seed."""
    order, rows, finals = _atom_seed(minimize(d), key)
    return _hopcroft(len(order), rows, finals)[0]


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
    count, block_of = _hopcroft(len(order), rows, finals)
    reach = _reach_counts(count, _class_rows(rows, count, block_of))
    # the seeds are states 0..len(keys)-1
    return {key: reach[block_of[i]] for i, key in enumerate(keys)}
