"""Semigroup sizes, quotient complexities, and atoms.

The transition semigroup S over n states has at most n^n elements, and
its size is read off at most C + 1 of them, C the larger of the cap and
the number of distinct letters.  So when min(C, n^n) is at most
``_LISTING_BOUND``, known before any work starts, S is listed: a
closure under right multiplication by the letters that stops at C + 1
elements.  Below that bound the fixed cost of the count described next
(an orbit, its components and a stabilizer chain per component) is more
than the cost of listing every element; above it, listing falls behind
as S grows.

Otherwise S is counted by its R-classes, never listing its elements
(Linton, Pfeiffer, Robertson and Ruškuc, "Groups and actions in
transformation semigroups", 1998; East, Egri-Nagy, Mitchell and Péresse,
"Computing finite semigroups", 2019).  The image sets of the elements form
one orbit under the letters, split into strongly connected components by
``automata._components``; an R-class whose image lies in component K
holds |K| x |G| elements, where G, the Schützenberger group of K, comes
from Schreier generators and its order from a deterministic Schreier–Sims
stabilizer chain.  R-classes are reached from the letters by left
multiplication and told apart by their H-class at one image of K, made
canonical modulo G: its kernel and the least element of a coset of G,
read off the chain.  The candidates are the k distinct letters and each
letter followed by each R-class's representative, and many are one
element made again: the left-ideal witness at n=7 makes 4,390
candidates, 1,923 of them distinct.  An element's key depends on the
element alone, so a set of the candidates keyed so far turns a repeat
away with one lookup.  So the cost follows the number of R-classes, not
of elements.  On both paths elements are bytes composed with
``bytes.translate``, which bounds the DFA at 256 states, and a cap stops
where a breadth-first closure stopped at cap elements would: the size
is exact up to C and reads C, truncated, above it.  The count stops as
soon as the orbit or the running sum exceeds C, and the chain of a
component K as soon as the part of G it has found exceeds C / |K|,
since the first R-class of K then passes C; so no step lists more than
2C things, and the set, which holds one candidate per letter for the
letters and for each R-class found, no more than k(C + 1).

Atom A_S is non-empty exactly when S = {q : qw is final} for some word w.
Those sets are the subsets reached by the subset construction on the
reversed DFA from the final states (Brzozowski and Tamm, "Theory of
atomata", 2014), so atoms are enumerated by ``automata._subsets`` on
the reversed transitions, the kernel that ``operations.reverse``
determinizes with, in time proportional to their number.

Every quotient of an atom is a union of atoms (Brzozowski and Tamm): the
quotient of A_S by w is the union of the A_T with Sw inside T and S'w
outside it, S' the complement of S.  Atoms are non-empty and pairwise
disjoint, so that set of atoms names the quotient exactly, and distinct
names are distinct languages: counting an atom's quotients needs no
refinement.  ``_atom_quotients`` is one breadth-first search over the
pairs (Sw, S'w) that expands each name once; a pair's successors under
every letter are one OR of its members' packed steps, taken by
``automata._subset_union`` as the subset construction takes them.  A
name is the AND of one atom mask per member, and the masks are read off
one bit string per state.

``atom_complexities`` seeds the search with every atom, so atoms that
reach the same quotient share it and all after it, and counts once how
many classes each reaches.  The result is a table of every atom's
complexity, kept on the ``Dfa`` on its first atom query: a later query,
for every atom or for one key, reads it.  A DFA whose minimal DFA has
more states than ``DEFAULT_ATOM_STATE_LIMIT`` gets no table; there
``atom_complexity`` counts the states of ``atom_automaton``, the search
seeded with its key alone, whose classes are each reachable from the
seed.  ``atom_automaton`` numbers them as ``minimize`` numbers the
atom's minimal DFA, and marks its result minimal with
``automata._mark_minimal``: distinct names are distinct quotients, so
``minimize`` returns it as it is and ``complexity`` counts it with no
refinement.

Sizes are counted, not built: the states of a minimal DFA are pairwise
distinguishable, so a quotient's complexity is the number of states of
the minimal DFA reachable from it, and an atom's is the number of names
reachable from its own.  ``automata._reach_counts`` gives both for every
state at once, from one pass over the strongly connected components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .automata import (
    Dfa,
    _components,
    _mark_minimal,
    _preimages,
    _reach_counts,
    _subset_union,
    _subsets,
    minimize,
)
from .errors import InputError, LimitError

DEFAULT_SEMIGROUP_CAP = 2_000_000
DEFAULT_ATOM_STATE_LIMIT = 12
SEMIGROUP_STATE_BOUND = 256
# a semigroup that can hold no more elements than this is listed
_LISTING_BOUND = 1_000

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
    listed when min(C, n^n) <= _LISTING_BOUND and counted one R-class at a
    time otherwise (see the module docstring).

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
    # |S| <= n^n, so the bound on what a listing could hold is known first
    count = _listed if min(limit, d.n**d.n) <= _LISTING_BOUND else _by_r_classes
    return count(d.n, gens, limit)


def _listed(n: int, gens: list[bytes], limit: int) -> SemigroupSummary:
    """The semigroup of the distinct letters gens over n states, listed by
    a closure under right multiplication by the letters; stops at limit + 1
    elements."""
    tables = [g + bytes(256 - n) for g in gens]
    seen = set(gens)
    elements = list(gens)
    for f in elements:  # the list grows while it is read: a FIFO queue
        for table in tables:
            h = f.translate(table)
            if h not in seen:
                seen.add(h)
                elements.append(h)
                if len(elements) > limit:
                    return SemigroupSummary(limit, True)
    return SemigroupSummary(len(elements), False)


def _by_r_classes(n: int, gens: list[bytes], limit: int) -> SemigroupSummary:
    """The semigroup of the distinct letters gens over n states, counted one
    R-class at a time (see the module docstring); stops past limit."""
    pad = bytes(256 - n)

    # the orbit of image sets, each the image of a distinct element; a set
    # is keyed by its complement, states.translate(None, points)
    states = _IDENTITY[:n]
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
    keyed: set[bytes] = set()  # the candidates keyed so far; a repeat's key is in keys
    while True:
        for f in candidates:
            if f in keyed:
                continue
            keyed.add(f)
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


def _atom_masks(m: Dfa, limit: int | None) -> list[int]:
    """The non-empty atoms of the minimal DFA m as masks of its states, in
    ``_subsets`` order, so atom 0 is the finals' own; over limit states
    (None: no limit) LimitError, before any enumeration."""
    if limit is not None and m.n > limit:
        raise LimitError(f"atom enumeration over {m.n} states exceeds the limit {limit}")
    steps = _preimages(m.n, [m.delta[letter].image for letter in m.alphabet])
    return _subsets(steps, sum(1 << q for q in m.finals), numbered=False)[0]


def atoms(d: Dfa, limit: int = DEFAULT_ATOM_STATE_LIMIT) -> frozenset[AtomKey]:
    """The subsets S of the minimal DFA's states whose atom is non-empty.

    The subset construction from S = F over the reversed transitions: the
    set for the word aw is {q : q.a in S}, where S is the set for w.
    LimitError is raised when the minimal DFA has more than limit states,
    before any enumeration; the default is DEFAULT_ATOM_STATE_LIMIT = 12.
    """
    m = minimize(d)
    return frozenset(
        frozenset(q for q in range(m.n) if mask >> q & 1) for mask in _atom_masks(m, limit)
    )


def _atom_quotients(
    m: Dfa, atoms: Sequence[int], seeds: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """The distinct quotients of the atoms (the masks of ``_atom_masks``)
    of the minimal DFA m that the distinct seeds index, each named by its
    atoms.

    The quotient of A_S by w is coded by its pair (Sw, S'w) as the int
    X | Y << n, and named by the AND of held[q], the atoms holding q, over
    q in X and of their complement over q in Y: an overlapping pair gets
    the empty name by itself.  The k-th seed is class k, named
    1 << seeds[k]; new names follow in BFS order, letters in alphabet
    order, each expanded once from the first pair found with it.  A code
    is looked up in a code -> class cache first, and named only on a miss.
    Returns (names, rows), rows[c][j] the class letter c takes class j to.
    """
    n = m.n
    full = (1 << len(atoms)) - 1
    # held[q] read off one bit string per state: column q of the atoms'
    # binary forms, the last atom's bit first
    forms = [format(atom, f"0{n}b") for atom in reversed(atoms)]
    held = [int("".join(column), 2) for column in zip(*forms)][::-1]
    # factor[p]: the mask a code's bit p ANDs into its name
    factor = held + [full ^ h for h in held]
    # steps[c][p]: the bit of p's image, in the X half for p < n, else in Y
    images = [m.delta[letter].image for letter in m.alphabet]
    steps = [[1 << q for q in image] + [1 << q + n for q in image] for image in images]
    codes = [atoms[i] | (atoms[i] ^ (1 << n) - 1) << n for i in seeds]
    # with no letters m has one state, so one atom and one seed
    union_of, shifts, mask = _subset_union(steps, codes[0])
    names = [1 << i for i in seeds]
    cache = {code: j for j, code in enumerate(codes)}  # code -> class
    index = {name: j for j, name in enumerate(names)}  # name -> class
    rows: list[list[int]] = [[] for _ in steps]
    for code in codes:  # the list grows while it is read: a FIFO queue
        union = union_of(code)
        for shift, row in zip(shifts, rows):
            target = union >> shift & mask
            j = cache.get(target)
            if j is None:
                name = full
                rest = target
                while rest:
                    low = rest & -rest
                    name &= factor[low.bit_length() - 1]
                    rest ^= low
                j = index.get(name)
                if j is None:
                    j = index[name] = len(codes)
                    codes.append(target)
                    names.append(name)
                cache[target] = j
            row.append(j)
    return names, rows


def _atom_mask(n: int, key, atoms: Collection[int]) -> int:
    """The mask of key's atom, one of atoms, of a minimal DFA of n states;
    rejects a key outside its states and an empty atom."""
    s = frozenset(key)
    if not s <= frozenset(range(n)):
        raise InputError(f"atom key {sorted(s)} outside the minimal DFA's states")
    x = sum(1 << q for q in s)
    if x not in atoms:
        raise InputError(f"atom for key {sorted(s)} is empty")
    return x


def _atom_table(d: Dfa, m: Dfa, masks: Sequence[int]) -> tuple[int, dict[int, int]]:
    """(m.n, {atom mask: complexity}) for m, the minimal DFA of L(d), and
    masks, its atoms as ``_atom_masks`` lists them; kept on d, which is
    never mutated.

    Every atom seeds one search, so atoms that reach the same quotient
    share it, and an atom's complexity is the number of classes reachable
    from its own."""
    names, rows = _atom_quotients(m, masks, range(len(masks)))
    reach = _reach_counts(len(names), rows)  # the seeds are classes 0..
    table = m.n, dict(zip(masks, reach))
    object.__setattr__(d, "_atom_table", table)
    return table


def atom_automaton(m: Dfa, key) -> Dfa:
    """The minimal DFA of the atom A_S of the minimal DFA m, whose states
    the key names: the atom's quotients, numbered as ``minimize`` numbers
    them, a quotient accepting the empty word when it holds A_F, atom 0.
    Rejects empty atoms."""
    masks = _atom_masks(m, None)
    names, rows = _atom_quotients(m, masks, [masks.index(_atom_mask(m.n, key, masks))])
    finals = frozenset(j for j, name in enumerate(names) if name & 1)
    # distinct names are distinct quotients, each reached from class 0
    return _mark_minimal(Dfa._trusted(len(names), m.alphabet, rows, 0, finals))


def atom_complexity(d: Dfa, key) -> int:
    """Quotient complexity of the atom A_S of the minimal DFA of L(d),
    over the full alphabet: the number of its distinct quotients.

    Up to the default atom limit every key of d reads the table of
    ``atom_complexities``, made on d's first atom query and kept on d;
    past it the states of the key's ``atom_automaton`` are counted, and
    nothing is kept.  No state limit applies.  A key outside the states
    or with an empty atom is rejected before any search, and then nothing
    is kept."""
    table = getattr(d, "_atom_table", None)
    if table is None:
        m = minimize(d)
        if m.n > DEFAULT_ATOM_STATE_LIMIT:
            return atom_automaton(m, key).n
        masks = _atom_masks(m, None)
        _atom_mask(m.n, key, masks)  # a rejected key makes no table
        table = _atom_table(d, m, masks)
    n, complexity = table
    return complexity[_atom_mask(n, key, complexity)]


def atom_complexities(d: Dfa) -> dict[AtomKey, int]:
    """atom_complexity of every non-empty atom, keyed as ``atoms`` keys
    them, under its default limit: one search seeded with every atom and
    one reach count over it, kept on d as a table of the atoms'
    complexities."""
    table = getattr(d, "_atom_table", None)
    if table is None:
        m = minimize(d)
        table = _atom_table(d, m, _atom_masks(m, DEFAULT_ATOM_STATE_LIMIT))
    n, complexity = table
    return {
        frozenset(q for q in range(n) if mask >> q & 1): value
        for mask, value in complexity.items()
    }
