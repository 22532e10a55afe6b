"""Shared corpus generators and independent oracles for the tests.

Oracles here deliberately avoid the library's own algorithms: reachability
is a plain DFS, the quotient count comes from signature refinement, and
language checks walk words directly.  The ``naive_*`` functions are the
slower routines the library's kernels replaced, kept as references for
differential tests.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import deque
from dataclasses import dataclass, replace
from random import Random

from typing import Callable, Iterable, Optional, Sequence

from suffixconvex.automata import (
    Dfa,
    _class_rows,
    _hopcroft,
    _occurring,
    _reach_counts,
    _walk,
    accepts,
    minimize,
    union_alphabet,
)
from suffixconvex.classifiers import ClassReport, Word, classify
from suffixconvex.errors import InputError, NotationError
from suffixconvex.measures import atoms
from suffixconvex.operations import _TRUTH
from suffixconvex.transformations import Transformation, cycle, send_to
from suffixconvex.verify import _atom_items
from suffixconvex.witnesses import CLAIMS, make_witness

EPSILON = None  # transition label for the empty word


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton with initial-state set and epsilon moves."""

    n: int
    alphabet: tuple[str, ...]
    transitions: frozenset[tuple[int, str | None, int]]
    initials: frozenset[int]
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "finals", frozenset(self.finals))
        states = frozenset(range(self.n))
        for p, letter, q in self.transitions:
            if p not in states or q not in states:
                raise InputError(f"transition ({p},{letter},{q}) leaves the state set")
            if letter is not None and letter not in self.alphabet:
                raise InputError(f"transition letter {letter!r} not in alphabet")
        if not (self.initials <= states and self.finals <= states):
            raise InputError("initial/final states outside the state set")


def random_dfa(rng: Random, max_n: int = 6, max_letters: int = 3) -> Dfa:
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_letters)
    alphabet = tuple("abcdefgh"[:k])
    delta = {l: tuple(rng.randrange(n) for _ in range(n)) for l in alphabet}
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa(n, alphabet, delta, 0, finals)


def dfa_corpus(seed: int, count: int, max_n: int = 6, max_letters: int = 3) -> list[Dfa]:
    rng = Random(seed)
    return [random_dfa(rng, max_n, max_letters) for _ in range(count)]


def random_dfa_any_start(rng: Random, max_n: int = 10, max_letters: int = 3) -> Dfa:
    """A random DFA with 0..max_letters letters and a random initial state,
    so unreachable states are common."""
    n = rng.randint(1, max_n)
    alphabet = tuple("abc"[: rng.randint(0, max_letters)])
    delta = {l: tuple(rng.randrange(n) for _ in range(n)) for l in alphabet}
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa(n, alphabet, delta, rng.randrange(n), finals)


def random_dfa_with_edge_finals(rng: Random, max_n: int = 8, max_letters: int = 3) -> Dfa:
    """random_dfa_any_start, with no final state one time in six and every
    state final one time in six."""
    d = random_dfa_any_start(rng, max_n, max_letters)
    roll = rng.randrange(6)
    if roll == 0:
        return replace(d, finals=frozenset())
    if roll == 1:
        return replace(d, finals=frozenset(range(d.n)))
    return d


def revalidated(d: Dfa) -> Dfa:
    """d rebuilt through the public constructor from plain image tuples,
    so every check of Dfa and Transformation runs again."""
    delta = {letter: tuple(t.image) for letter, t in d.delta.items()}
    return Dfa(d.n, d.alphabet, delta, d.initial, d.finals)


def random_nfa(rng: Random, max_n: int = 8, max_letters: int = 3) -> Nfa:
    """A random epsilon-NFA: sparse moves (some states have none), random
    epsilon moves plus, half the time, one epsilon cycle, and an initial
    set that is empty one time in five."""
    n = rng.randint(1, max_n)
    alphabet = tuple("abc"[: rng.randint(0, max_letters)])
    transitions = set()
    for _ in range(rng.randint(0, 2 * n)):
        transitions.add((rng.randrange(n), rng.choice(alphabet + (EPSILON,)), rng.randrange(n)))
    if rng.random() < 0.5:
        ring = rng.sample(range(n), rng.randint(1, n))
        transitions.update((p, EPSILON, q) for p, q in zip(ring, ring[1:] + ring[:1]))
    initials = frozenset() if rng.random() < 0.2 else frozenset(
        q for q in range(n) if rng.random() < 0.3
    )
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Nfa(n, alphabet, frozenset(transitions), initials, finals)


def random_generators_dfa(rng: Random, max_n: int = 7, max_letters: int = 3) -> Dfa:
    """A DFA whose letters are random transformations of 1..max_n states,
    each letter a random permutation three times in ten, so that
    semigroups with nontrivial groups are common."""
    n = rng.randint(1, max_n)
    alphabet = tuple("abc"[: rng.randint(1, max_letters)])
    delta = {}
    for letter in alphabet:
        if rng.random() < 0.3:
            delta[letter] = tuple(rng.sample(range(n), n))
        else:
            delta[letter] = tuple(rng.randrange(n) for _ in range(n))
    return Dfa(n, alphabet, delta, 0, frozenset())


def walk_reach_counts(n: int, rows) -> list[int]:
    """The number of states reachable from each state along p -> rows[c][p],
    one breadth-first walk per state: the per-seed counting that
    ``automata._reach_counts`` replaced in ``measures.quotient_complexities``
    and ``measures.atom_complexities``."""
    return [len(_walk(n, rows, q, ())[0]) for q in range(n)]


def appending_walk(
    n: int, images: Sequence[Sequence[int]], initial: int, finals: Iterable[int]
) -> tuple[list[int], list[list[int]], frozenset[int]]:
    """The ``automata._walk`` that appended each row entry while it numbered
    the states, and always built new rows."""
    number = [-1] * n
    number[initial] = 0
    order = [initial]
    rows: list[list[int]] = [[] for _ in images]
    for p in order:
        for image, row in zip(images, rows):
            q = image[p]
            i = number[q]
            if i < 0:
                i = number[q] = len(order)
                order.append(q)
            row.append(i)
    return order, rows, frozenset(number[q] for q in finals if number[q] >= 0)


def reachable_oracle(d: Dfa) -> set[int]:
    seen = {d.initial}
    stack = [d.initial]
    while stack:
        p = stack.pop()
        for letter in d.alphabet:
            q = d.delta[letter](p)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def quotient_count_oracle(d: Dfa) -> int:
    """Number of distinct quotients: signature refinement from scratch."""
    states = sorted(reachable_oracle(d))
    block = {q: int(q in d.finals) for q in states}
    while True:
        signatures = {
            q: (block[q], tuple(block[d.delta[l](q)] for l in d.alphabet)) for q in states
        }
        renumber: dict = {}
        new_block = {}
        for q in states:
            new_block[q] = renumber.setdefault(signatures[q], len(renumber))
        if new_block == block:
            return len(renumber)
        block = new_block


def naive_partition(n: int, rows: dict[str, Transformation], finals: frozenset[int]) -> list[frozenset[int]]:
    """Partition {0,..,n-1} into equivalence classes by quadratic refinement.

    Each splitter is intersected with every block of the partition, so the
    cost grows quadratically in n; the reference for ``automata._hopcroft``.
    """
    final_block = frozenset(finals)
    other_block = frozenset(range(n)) - final_block
    partition = {b for b in (final_block, other_block) if b}
    if len(partition) <= 1:
        return list(partition)

    pre: dict[str, list[list[int]]] = {}
    for letter, t in rows.items():
        table: list[list[int]] = [[] for _ in range(n)]
        for p in range(n):
            table[t(p)].append(p)
        pre[letter] = table

    worklist = {min(partition, key=len)}
    while worklist:
        splitter = worklist.pop()
        for letter in rows:
            table = pre[letter]
            moved = set()
            for q in splitter:
                moved.update(table[q])
            if not moved:
                continue
            for block in list(partition):
                inter = block & moved
                if not inter or len(inter) == len(block):
                    continue
                rest = block - inter
                inter, rest = frozenset(inter), frozenset(rest)
                partition.remove(block)
                partition.add(inter)
                partition.add(rest)
                if block in worklist:
                    worklist.remove(block)
                    worklist.add(inter)
                    worklist.add(rest)
                else:
                    worklist.add(inter if len(inter) <= len(rest) else rest)
    return list(partition)


def letterwise_hopcroft(
    n: int, rows: Sequence[Sequence[int]], finals: Iterable[int]
) -> tuple[int, list[int]]:
    """Partition {0,..,n-1} (n >= 1) into classes of equivalent states, with
    a worklist of (block, letter) splitters: the kernel that the block
    worklist of ``automata._hopcroft`` replaced, kept as its reference.

    rows holds one image sequence per letter: rows[c][p] is the state
    letter c takes p to.  Returns (count, block_of): the classes are
    0..count-1, in no particular order, and block_of[q] is the class of q.

    Hopcroft's algorithm ("An n log n algorithm for minimizing states in a
    finite automaton", 1971) on the refinable partition of Valmari and
    Lehtinen ("Efficient minimization of DFAs with partial transition
    functions", STACS 2008).  Starting from finals / non-finals, a worklist
    of (block, letter) splitters is drained: the preimage of a splitter's
    block under its letter is grouped by the block each state sits in, and
    only those blocks are split, at a cost of the states moved.  A split
    block queues its smaller half for every letter, or both halves for a
    letter it was already queued for.  Each state therefore lies in
    O(log n) processed splitters per letter, and with k letters the whole
    refinement takes O(k·n log n) time.
    """
    # block 0 holds the finals, block 1 the rest
    block_of = [1] * n
    for q in finals:
        block_of[q] = 0
    elems = [q for q in range(n) if not block_of[q]]
    cut = len(elems)
    if cut in (0, n):
        return 1, [0] * n
    elems += [q for q in range(n) if block_of[q]]

    pre: list[list[list[int]]] = []
    for image in rows:
        table: list[list[int]] = [[] for _ in range(n)]
        for p, q in enumerate(image):
            table[q].append(p)
        pre.append(table)

    # Block b holds elems[first[b]:end[b]]; while a splitter is processed,
    # the block's states in the preimage are gathered in elems[first[b]:mid[b]].
    loc = [0] * n
    for i, q in enumerate(elems):
        loc[q] = i
    first, end, mid = [0, cut], [cut, n], [0, cut]

    # splitter (block b, letter c) is coded b * k + c
    k = len(pre)
    smaller = 0 if cut <= n - cut else 1
    waiting = [smaller * k + c for c in range(k)]
    queued = [False] * (2 * k)
    for code in waiting:
        queued[code] = True

    while waiting:
        code = waiting.pop()
        queued[code] = False
        b, c = divmod(code, k)
        table = pre[c]
        touched = []
        for q in elems[first[b]:end[b]]:
            for p in table[q]:
                y = block_of[p]
                j = mid[y]
                if j == first[y]:
                    touched.append(y)
                i = loc[p]
                other = elems[j]
                elems[j], elems[i] = p, other
                loc[p], loc[other] = j, i
                mid[y] = j + 1
        for y in touched:
            f, m, e = first[y], mid[y], end[y]
            mid[y] = f
            if m == e:
                continue
            # the gathered states become a new block; y keeps the rest
            new = len(first)
            first.append(f)
            end.append(m)
            mid.append(f)
            first[y] = mid[y] = m
            for i in range(f, m):
                block_of[elems[i]] = new
            queued.extend([False] * k)
            half = new if m - f <= e - m else y
            for a in range(k):
                code = (new if queued[y * k + a] else half) * k + a
                queued[code] = True
                waiting.append(code)
    return len(first), block_of


def naive_reachable_states(d: Dfa) -> list[int]:
    """States reachable from the initial state, in BFS discovery order.

    A deque BFS stepping through ``Transformation.__call__``; the reference
    for ``automata.reachable_states``.
    """
    order = [d.initial]
    seen = {d.initial}
    queue = deque(order)
    while queue:
        p = queue.popleft()
        for letter in d.alphabet:
            q = d.delta[letter](p)
            if q not in seen:
                seen.add(q)
                order.append(q)
                queue.append(q)
    return order


def naive_coreachable_states(d: Dfa) -> frozenset[int]:
    """States from which some final state can be reached: a DFS from the
    finals along the reversed transitions, listed per state up front."""
    pre = {q: set() for q in range(d.n)}
    for letter in d.alphabet:
        for p in range(d.n):
            pre[d.delta[letter](p)].add(p)
    seen = set(d.finals)
    stack = list(seen)
    while stack:
        for p in pre[stack.pop()] - seen:
            seen.add(p)
            stack.append(p)
    return frozenset(seen)


def _renumber(d: Dfa) -> Dfa:
    """Relabel states in BFS discovery order; requires all states reachable."""
    order = naive_reachable_states(d)
    if len(order) != d.n:
        raise InputError("renumbering requires every state to be reachable")
    new_of = {old: new for new, old in enumerate(order)}
    delta = {
        letter: Transformation(tuple(new_of[d.delta[letter](old)] for old in order))
        for letter in d.alphabet
    }
    finals = frozenset(new_of[q] for q in d.finals if q in new_of)
    return Dfa(d.n, d.alphabet, delta, 0, finals)


def naive_minimize(d: Dfa) -> Dfa:
    """The minimal DFA of L(d) built through two intermediate DFAs.

    Restricts to the reachable states, builds the quotient over
    ``naive_partition``'s classes, then renumbers it by a second BFS; the
    reference for ``automata.minimize``, numbering included.
    """
    order = naive_reachable_states(d)
    sub_of = {old: i for i, old in enumerate(order)}
    n = len(order)
    rows = {
        letter: Transformation(tuple(sub_of[d.delta[letter](old)] for old in order))
        for letter in d.alphabet
    }
    finals = frozenset(sub_of[q] for q in d.finals if q in sub_of)

    blocks = naive_partition(n, rows, finals)
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for q in block:
            block_of[q] = i
    reps = [min(block) for block in blocks]
    delta = {
        letter: Transformation(tuple(block_of[rows[letter](rep)] for rep in reps))
        for letter in d.alphabet
    }
    quotient = Dfa(
        len(blocks),
        d.alphabet,
        delta,
        block_of[sub_of[d.initial]],
        frozenset(i for i, block in enumerate(blocks) if block <= finals and block),
    )
    return _renumber(quotient)


def naive_determinize(m: Nfa) -> Dfa:
    """Subset construction over frozensets, closing each subset afresh.

    States are the reachable closed subsets, numbered by BFS discovery
    order with letters scanned in alphabet order; the reference for
    ``automata.determinize`` (through ``nfa_steps``).
    """
    eps: list[list[int]] = [[] for _ in range(m.n)]
    moves: dict[str, list[list[int]]] = {l: [[] for _ in range(m.n)] for l in m.alphabet}
    for p, letter, q in m.transitions:
        if letter is EPSILON:
            eps[p].append(q)
        else:
            moves[letter][p].append(q)

    def closure(states: Iterable[int]) -> frozenset[int]:
        result = set(states)
        stack = list(result)
        while stack:
            p = stack.pop()
            for q in eps[p]:
                if q not in result:
                    result.add(q)
                    stack.append(q)
        return frozenset(result)

    start = closure(m.initials)
    index: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    rows: dict[str, list[int]] = {l: [] for l in m.alphabet}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        for letter in m.alphabet:
            move = set()
            table = moves[letter]
            for p in subset:
                move.update(table[p])
            target = closure(move)
            if target not in index:
                index[target] = len(order)
                order.append(target)
                queue.append(target)
            rows[letter].append(index[target])

    delta = {l: Transformation(tuple(rows[l])) for l in m.alphabet}
    finals = frozenset(i for i, subset in enumerate(order) if subset & m.finals)
    return Dfa(len(order), m.alphabet, delta, 0, finals)


def nfa_steps(m: Nfa) -> tuple[tuple[str, ...], list[list[int]], int, int]:
    """The arguments of ``automata.determinize`` for m: (alphabet, bitmask
    steps, start, accepting), each state's epsilon closure folded in.

    A closure of a union is the union of the closures, so each state's
    closure and each (letter, state) closed step are computed once.
    """
    eps: list[list[int]] = [[] for _ in range(m.n)]
    moves: dict[str, list[list[int]]] = {l: [[] for _ in range(m.n)] for l in m.alphabet}
    for p, letter, q in m.transitions:
        if letter is EPSILON:
            eps[p].append(q)
        else:
            moves[letter][p].append(q)

    closure: list[int] = []
    for p in range(m.n):
        mask = 1 << p
        stack = [p]
        while stack:
            for q in eps[stack.pop()]:
                if not mask >> q & 1:
                    mask |= 1 << q
                    stack.append(q)
        closure.append(mask)
    steps: list[list[int]] = []
    for letter in m.alphabet:
        row = []
        for targets in moves[letter]:
            mask = 0
            for q in targets:
                mask |= closure[q]
            row.append(mask)
        steps.append(row)

    start = 0
    for p in m.initials:
        start |= closure[p]
    return m.alphabet, steps, start, sum(1 << q for q in m.finals)


# --- the epsilon-NFA constructions ``operations.concat``, ``star``,
# ``reverse`` and ``classifiers.suffix_language``, ``_prefixed`` replaced:
# each builds an ``Nfa`` of transition triples and determinizes it, here
# with ``naive_determinize``.


def naive_concat(d1: Dfa, d2: Dfa) -> Dfa:
    """Product (concatenation) via the epsilon-NFA, determinized.

    Both automata sit side by side over the union alphabet; letters
    missing on one side simply contribute no transitions there.
    """
    sigma = union_alphabet(d1, d2)
    shift = d1.n
    transitions = set()
    for letter in d1.alphabet:
        t = d1.delta[letter]
        transitions.update((p, letter, t(p)) for p in range(d1.n))
    for letter in d2.alphabet:
        t = d2.delta[letter]
        transitions.update((p + shift, letter, t(p) + shift) for p in range(d2.n))
    transitions.update((f, None, d2.initial + shift) for f in d1.finals)
    nfa = Nfa(
        d1.n + d2.n,
        sigma,
        frozenset(transitions),
        frozenset({d1.initial}),
        frozenset(f + shift for f in d2.finals),
    )
    return naive_determinize(nfa)


def naive_star(d: Dfa) -> Dfa:
    """Kleene star: new final initial state copying the old initial's
    outgoing transitions, epsilon moves from old finals back to it."""
    fresh = d.n
    transitions = set()
    for letter in d.alphabet:
        t = d.delta[letter]
        transitions.update((p, letter, t(p)) for p in range(d.n))
        transitions.add((fresh, letter, t(d.initial)))
    transitions.update((f, None, fresh) for f in d.finals)
    nfa = Nfa(
        d.n + 1,
        d.alphabet,
        frozenset(transitions),
        frozenset({fresh}),
        d.finals | {fresh},
    )
    return naive_determinize(nfa)


def naive_reverse(d: Dfa) -> Dfa:
    """Language reversal: flip every transition, swap initial and finals,
    determinize."""
    transitions = set()
    for letter in d.alphabet:
        t = d.delta[letter]
        transitions.update((t(p), letter, p) for p in range(d.n))
    nfa = Nfa(d.n, d.alphabet, frozenset(transitions), d.finals, frozenset({d.initial}))
    return naive_determinize(nfa)


def _moves(d: Dfa) -> set:
    return {(p, letter, q) for letter in d.alphabet for p, q in enumerate(d.delta[letter].image)}


def naive_suffix_language(d: Dfa) -> Dfa:
    """DFA for the suffixes of words of L(d).

    NFA whose initial states are the states of d that are both reachable
    and co-reachable, determinized.
    """
    useful = frozenset(naive_reachable_states(d)) & naive_coreachable_states(d)
    return naive_determinize(Nfa(d.n, d.alphabet, _moves(d), useful, d.finals))


def naive_prefixed(d: Dfa) -> Dfa:
    """DFA for Σ⁺L: ΣL with a loop on every letter at its initial state,
    determinized.  ΣL is d with a fresh initial state n that every letter
    takes to d's initial state."""
    moves = _moves(d) | {(d.n, letter, q) for letter in d.alphabet for q in (d.initial, d.n)}
    return naive_determinize(Nfa(d.n + 1, d.alphabet, moves, {d.n}, d.finals))


def naive_complete_over(d: Dfa, sigma: Sequence[str]) -> Dfa:
    """Extend d to the alphabet sigma, sending new letters to a fresh sink.

    If sigma equals d's alphabet the automaton is returned unchanged; a
    permutation of the same letters only reorders the alphabet.
    """
    sigma = tuple(sigma)
    if len(set(sigma)) != len(sigma):
        raise InputError("sigma letters must be unique")
    missing = set(d.alphabet) - set(sigma)
    if missing:
        raise InputError(f"sigma is missing letters {sorted(missing)} of the automaton")
    if sigma == d.alphabet:
        return d
    if set(sigma) == set(d.alphabet):
        return Dfa(d.n, sigma, dict(d.delta), d.initial, d.finals)
    sink = d.n
    delta = {}
    for letter in sigma:
        if letter in d.delta:
            delta[letter] = Transformation(d.delta[letter].image + (sink,))
        else:
            delta[letter] = Transformation((sink,) * (d.n + 1))
    return Dfa(d.n + 1, sigma, delta, d.initial, d.finals)


def naive_product(d1: Dfa, d2: Dfa, op: str) -> Dfa:
    """Reachable part of the direct product over tuple pairs.

    Alphabets must agree as sets; the reference for
    ``operations._boolean_product``, whose unrestricted mode it matches on
    operands completed by ``naive_complete_over``.
    """
    decide = _TRUTH[op]
    sigma = d1.alphabet
    start = (d1.initial, d2.initial)
    index = {start: 0}
    order = [start]
    rows: dict[str, list[int]] = {l: [] for l in sigma}
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        for letter in sigma:
            pair = (d1.delta[letter](p), d2.delta[letter](q))
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
                queue.append(pair)
            rows[letter].append(index[pair])
    delta = {l: Transformation(tuple(rows[l])) for l in sigma}
    finals = frozenset(
        i for i, (p, q) in enumerate(order) if decide(p in d1.finals, q in d2.finals)
    )
    return Dfa(len(order), sigma, delta, 0, finals)


def naive_semigroup(d: Dfa, cap: int) -> tuple[int, bool]:
    """(size, truncated) of the transition semigroup, closed over tuples.

    Breadth-first over words by length, then alphabet order, composing
    element by element: stops, flagging truncation, when an element past
    the first cap is found, but always keeps every distinct letter.  The
    reference for ``measures.transition_semigroup``, which counts the same
    (size, truncated) from Green's structure without listing elements.
    """
    gen_images = [d.delta[letter].image for letter in d.alphabet]
    seen: set[tuple[int, ...]] = set()
    queue: deque[tuple[int, ...]] = deque()
    truncated = False
    for image in gen_images:
        if image not in seen:
            seen.add(image)
            queue.append(image)
    while queue and not truncated:
        current = queue.popleft()
        for gen in gen_images:
            composed = tuple(gen[q] for q in current)
            if composed in seen:
                continue
            if len(seen) >= cap:
                truncated = True
                break
            seen.add(composed)
            queue.append(composed)
    return len(seen), truncated


def group_closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every element of the permutation group that gens generate (images of
    0..r-1 as tuples), by closing the identity under composition: the
    reference for ``measures._stabilizer_chain``."""
    r = len(gens[0]) if gens else 0
    identity = tuple(range(r))
    seen = {identity}
    queue = [identity]
    for p in queue:  # the list grows while it is read
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def naive_atoms(d: Dfa) -> frozenset[frozenset[int]]:
    """Non-empty atom keys by a plain per-subset search of the pair space.

    For every subset S of the minimal DFA's states, searches the image
    pairs reachable from (S, complement of S) for one with Sw inside the
    finals and the complement's image outside them; no shared caches.
    The reference for ``measures.atoms``.
    """
    m = minimize(d)
    full = frozenset(range(m.n))
    found = set()
    for bits in range(2**m.n):
        s = frozenset(q for q in range(m.n) if bits >> q & 1)
        start = (s, full - s)
        seen = {start}
        queue = [start]
        hit = False
        while queue and not hit:
            x, y = queue.pop()
            if x <= m.finals and not (y & m.finals):
                hit = True
                break
            for letter in m.alphabet:
                nx = frozenset(m.delta[letter](q) for q in x)
                ny = frozenset(m.delta[letter](q) for q in y)
                if nx & ny:
                    continue
                pair = (nx, ny)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
        if hit:
            found.add(s)
    return frozenset(found)


# --- size queries: the routines ``automata.complexity``,
# ``automata.occurring_letters``, ``measures.quotient_complexities`` and
# ``measures.atom_complexities`` replaced, each building a full minimal DFA
# for every size it reads, and the one-atom pair automaton, with a sink for
# the overlapping pairs, that ``measures.atom_automaton`` once numbered.


def naive_occurring_letters(d: Dfa) -> frozenset[str]:
    """Letters appearing in at least one accepted word."""
    reach = naive_reachable_states(d)
    core = naive_coreachable_states(d)
    return frozenset(
        letter for letter in d.alphabet if any(d.delta[letter].image[p] in core for p in reach)
    )


def restrict_to_occurring(d: Dfa) -> Dfa:
    """Drop letters that occur in no accepted word (states untouched)."""
    occ = naive_occurring_letters(d)
    if occ == frozenset(d.alphabet):
        return d
    alphabet = tuple(l for l in d.alphabet if l in occ)
    return Dfa(d.n, alphabet, {l: d.delta[l] for l in alphabet}, d.initial, d.finals)


def naive_complexity(d: Dfa) -> int:
    """Quotient complexity of L(d): minimal DFA size over the occurring letters."""
    return minimize(restrict_to_occurring(d)).n


def occurring_route_complexity(d: Dfa) -> int:
    """``automata.complexity`` as it was before it read the occurring
    letters off its refinement: a co-reachability pass finds them, and a
    second walk drops the states that only a dropped letter reached."""
    n, rows, finals, _, occurs = _occurring(d)
    if not all(occurs):
        order, rows, finals = _walk(n, [r for r, ok in zip(rows, occurs) if ok], 0, finals)
        n = len(order)
    return _hopcroft(n, rows, finals)[0]


def naive_quotient_complexities(d: Dfa) -> tuple[int, ...]:
    """Complexity of each state's language in the minimal DFA of L(d).

    Every quotient keeps the full alphabet of L (an empty quotient has
    complexity 1, not 0).
    """
    m = minimize(d)
    return tuple(minimize(replace(m, initial=q)).n for q in range(m.n))


def naive_atom_automaton(m: Dfa, key) -> Dfa:
    """DFA of the atom A_S of the minimal DFA m, built for S alone.

    States are the image pairs reachable from (S, complement of S), held
    as frozenset pairs and numbered by BFS discovery order with letters in
    alphabet order; overlapping pairs collapse into one sink (None).  A
    pair accepts when its first set lies inside the finals and its second
    avoids them.  Minimized, the reference for ``measures.atom_automaton``.
    """
    s = frozenset(key)
    full = frozenset(range(m.n))
    if not s <= full:
        raise InputError(f"atom key {sorted(s)} outside the minimal DFA's states")
    start = (s, full - s)
    index = {start: 0}
    order = [start]
    delta = {letter: [] for letter in m.alphabet}
    for pair in order:
        for letter in m.alphabet:
            nxt = None
            if pair is not None:
                nx = frozenset(m.delta[letter](q) for q in pair[0])
                ny = frozenset(m.delta[letter](q) for q in pair[1])
                if not nx & ny:
                    nxt = (nx, ny)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            delta[letter].append(index[nxt])
    finals = frozenset(
        i for i, pair in enumerate(order)
        if pair is not None and pair[0] <= m.finals and not pair[1] & m.finals
    )
    if not finals:
        raise InputError(f"atom for key {sorted(s)} is empty")
    return Dfa(len(order), m.alphabet, delta, 0, finals)


def naive_atom_complexity(d: Dfa, key) -> int:
    """Quotient complexity of the atom A_S: its own atom automaton,
    minimizing L(d) for every key."""
    return minimize(naive_atom_automaton(minimize(d), key)).n


# --- the image-pair route to atom complexity that
# ``measures._atom_quotients`` replaced: one pair automaton, overlapping
# pairs collapsed into a sink, refined with ``_hopcroft``.


def refined_atom_pairs(
    m: Dfa, keys: Sequence[frozenset[int]]
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
    for code in order:
        members = [p for p in range(2 * n) if code >> p & 1]
        for step, row in zip(steps, rows):
            target = 0
            for p in members:
                target |= step[p]
            if target & target >> n:
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


def refined_atom_complexities(d: Dfa) -> dict[frozenset[int], int]:
    """Every atom's complexity from one refinement of the pair automaton
    seeded with all atoms: the classes reachable from its seed's class."""
    m = minimize(d)
    keys = list(atoms(m, limit=m.n))
    order, rows, finals = refined_atom_pairs(m, keys)
    count, block_of = _hopcroft(len(order), rows, finals)
    reach = _reach_counts(count, _class_rows(rows, count, block_of))
    return {key: reach[block_of[i]] for i, key in enumerate(keys)}


def refined_atom_complexity(d: Dfa, key) -> int:
    """One atom's complexity: the classes of one refinement of its own
    pair automaton, every pair of which is reachable from the seed."""
    m = minimize(d)
    s = frozenset(key)
    if not s <= frozenset(range(m.n)):
        raise InputError(f"atom key {sorted(s)} outside the minimal DFA's states")
    order, rows, finals = refined_atom_pairs(m, [s])
    if not finals:
        raise InputError(f"atom for key {sorted(s)} is empty")
    return _hopcroft(len(order), rows, finals)[0]


# --- the memberwise searches ``automata._subsets`` and
# ``measures._atom_quotients`` replaced: each lists a set's members once and
# ORs every member's step again for each letter, where the library ORs each
# member's packed steps once for all letters.


def memberwise_subsets(
    steps: Sequence[Sequence[int]], start: int
) -> tuple[list[int], list[list[int]]]:
    """Subset construction on bitmask steps: (order, rows) as ``_subsets``
    numbers them, the subsets in BFS discovery order from start."""
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in steps]
    for subset in order:  # the list grows while it is read: a FIFO queue
        members = []
        rest = subset
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        for step, row in zip(steps, rows):
            target = 0
            for p in members:
                target |= step[p]
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                order.append(target)
            row.append(j)
    return order, rows


def memberwise_atom_quotients(
    m: Dfa, atoms: Sequence[int], seeds: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """(names, rows) of the atoms' quotients as ``_atom_quotients`` numbers
    them: a pair (Sw, S'w) coded X | Y << n is named by the AND of held[q],
    the atoms holding q, over q in X and of their complement over q in Y."""
    n = m.n
    full = (1 << len(atoms)) - 1
    held = [sum(1 << i for i, mask in enumerate(atoms) if mask >> q & 1) for q in range(n)]
    # factor[p]: the mask a code's bit p ANDs into its name
    factor = held + [full ^ h for h in held]
    # steps[c][p]: the bit of p's image, in the X half for p < n, else in Y
    images = [m.delta[letter].image for letter in m.alphabet]
    steps = [[1 << q for q in image] + [1 << q + n for q in image] for image in images]
    codes = [atoms[i] | (atoms[i] ^ (1 << n) - 1) << n for i in seeds]
    names = [1 << i for i in seeds]
    cache = {code: j for j, code in enumerate(codes)}  # code -> class
    index = {name: j for j, name in enumerate(names)}  # name -> class
    rows: list[list[int]] = [[] for _ in steps]
    for code in codes:  # the list grows while it is read: a FIFO queue
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


def witness_atom_items(family: str, n: int) -> list[tuple[frozenset, int, int]]:
    """(definition key, measured complexity, formula value) per non-empty
    atom of the family's witness at n, as the harness reports them: the
    formula is the family's atom claim's."""
    claim = next(c for c in CLAIMS if c.family == family and c.tag == "atom")
    return _atom_items(make_witness(family, n), claim, n)


# --- dialects: the exhaustive searches behind the claims table's statements
# that no dialect meets a bound


def injective_dialects(width: int, targets: str, kept: Iterable[int]) -> Iterable[tuple]:
    """Every letter map over a witness of width letters that keeps k of its
    letters, for each k in kept, and renames them injectively onto the
    letters of targets; a dropped letter is None.  Kept positions in
    lexicographic order, then target tuples in ``itertools.permutations``
    order."""
    for k in kept:
        for positions in itertools.combinations(range(width), k):
            for names in itertools.permutations(targets, k):
                pi = [None] * width
                for position, name in zip(positions, names):
                    pi[position] = name
                yield tuple(pi)


# --- classifiers: the one multi-pattern search ``classifiers._first_words``
# replaced; each predicate builds its own product, and the left-ideal test
# searches ΣL∖L once per letter rather than reading Σ⁺L∖L.


def _shortest_word(alphabet, start, step, hit) -> Optional[Word]:
    """Length-lex smallest word w with hit(state after w), or None."""
    if hit(start):
        return ()
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        state, word = queue.popleft()
        for letter in alphabet:
            nxt = step(state, letter)
            if nxt in seen:
                continue
            if hit(nxt):
                return word + (letter,)
            seen.add(nxt)
            queue.append((nxt, word + (letter,)))
    return None


def _is_empty(d: Dfa) -> bool:
    return not (set(naive_reachable_states(d)) & d.finals)


def _prefixed_nfa(d: Dfa, allow_empty_prefix: bool) -> Nfa:
    """NFA for {xw : x nonempty (or any, if allowed), w in L(d)}."""
    guess = d.n
    transitions = {
        (p, letter, d.delta[letter](p)) for letter in d.alphabet for p in range(d.n)
    }
    for letter in d.alphabet:
        transitions.add((guess, letter, guess))
        transitions.add((guess, letter, d.initial))
    initials = frozenset({guess, d.initial}) if allow_empty_prefix else frozenset({guess})
    return Nfa(d.n + 1, d.alphabet, frozenset(transitions), initials, d.finals)


def _word_key(d: Dfa) -> Callable[[Word], tuple]:
    index = {letter: i for i, letter in enumerate(d.alphabet)}
    return lambda word: (len(word), tuple(index[l] for l in word))


def naive_is_left_ideal(d: Dfa) -> tuple[bool, Optional[Word]]:
    """Non-empty and closed under prefixing a single letter.

    The counterexample, if any, is the smallest word of the form lw with
    w accepted and lw rejected.
    """
    if _is_empty(d):
        return False, None
    candidates = []
    for letter in d.alphabet:
        start = (d.initial, d.step(d.initial, letter))

        def step(pair, l):
            return (d.delta[l](pair[0]), d.delta[l](pair[1]))

        def hit(pair):
            return pair[0] in d.finals and pair[1] not in d.finals

        tail = _shortest_word(d.alphabet, start, step, hit)
        if tail is not None:
            candidates.append((letter,) + tail)
    if not candidates:
        return True, None
    return False, min(candidates, key=_word_key(d))


def naive_is_suffix_closed(d: Dfa) -> tuple[bool, Optional[Word]]:
    """Every suffix of every accepted word is accepted.

    The counterexample is the smallest suffix of an accepted word that
    is itself rejected.
    """
    suff = naive_suffix_language(d)
    start = (suff.initial, d.initial)

    def step(pair, letter):
        return (suff.delta[letter](pair[0]), d.delta[letter](pair[1]))

    def hit(pair):
        return pair[0] in suff.finals and pair[1] not in d.finals

    word = _shortest_word(d.alphabet, start, step, hit)
    return (word is None), word


def naive_is_suffix_free(d: Dfa) -> tuple[bool, Optional[Word]]:
    """No accepted word is a proper suffix of another accepted word.

    The counterexample is the smallest accepted word that also has a
    shorter accepted suffix.
    """
    padded = naive_determinize(_prefixed_nfa(d, allow_empty_prefix=False))
    start = (d.initial, padded.initial)

    def step(pair, letter):
        return (d.delta[letter](pair[0]), padded.delta[letter](pair[1]))

    def hit(pair):
        return pair[0] in d.finals and pair[1] in padded.finals

    word = _shortest_word(d.alphabet, start, step, hit)
    return (word is None), word


def naive_is_suffix_convex(d: Dfa) -> tuple[bool, Optional[Word]]:
    """Whenever z and xyz are accepted, so is yz.

    Equivalent automaton-level test: every word that has an accepted
    suffix and is itself a suffix of an accepted word must be accepted.
    """
    padded = naive_determinize(_prefixed_nfa(d, allow_empty_prefix=True))
    suff = naive_suffix_language(d)
    start = (padded.initial, suff.initial, d.initial)

    def step(triple, letter):
        return (
            padded.delta[letter](triple[0]),
            suff.delta[letter](triple[1]),
            d.delta[letter](triple[2]),
        )

    def hit(triple):
        return (
            triple[0] in padded.finals
            and triple[1] in suff.finals
            and triple[2] not in d.finals
        )

    word = _shortest_word(d.alphabet, start, step, hit)
    return (word is None), word


def naive_classify(d: Dfa) -> ClassReport:
    results = {
        "left-ideal": naive_is_left_ideal(d),
        "suffix-closed": naive_is_suffix_closed(d),
        "suffix-free": naive_is_suffix_free(d),
        "suffix-convex": naive_is_suffix_convex(d),
    }
    return ClassReport(
        is_left_ideal=results["left-ideal"][0],
        is_suffix_closed=results["suffix-closed"][0],
        is_suffix_free=results["suffix-free"][0],
        is_suffix_convex=results["suffix-convex"][0],
        counterexamples={
            tag: word for tag, (ok, word) in results.items() if not ok and word is not None
        },
    )


def class_verdict(d: Dfa, tag: str) -> tuple[bool, Optional[Word]]:
    """One class's answer from ``classify`` in the naive predicates' form:
    (membership, least counterexample or None)."""
    report = classify(d)
    return getattr(report, "is_" + tag.replace("-", "_")), report.counterexamples.get(tag)


def brute_force_language(d: Dfa, max_len: int) -> set[tuple[str, ...]]:
    """All accepted words of length at most max_len, by trie walk."""
    out: set[tuple[str, ...]] = set()
    stack = [(d.initial, ())]
    while stack:
        state, word = stack.pop()
        if state in d.finals:
            out.add(word)
        if len(word) < max_len:
            for letter in d.alphabet:
                stack.append((d.delta[letter](state), word + (letter,)))
    return out


def words_upto(alphabet, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def language_upto(d: Dfa, max_len: int) -> set[tuple[str, ...]]:
    return {w for w in words_upto(d.alphabet, max_len) if accepts(d, w)}


def same_language_upto(d1: Dfa, d2: Dfa, max_len: int) -> bool:
    """Whether d1 and d2 agree on every word of length at most max_len
    over their letters together; a word with a letter outside an
    automaton's alphabet is not in its language."""
    sigma = sorted(set(d1.alphabet) | set(d2.alphabet))

    def member(d: Dfa, w) -> bool:
        return set(w) <= set(d.alphabet) and accepts(d, w)

    return all(member(d1, w) == member(d2, w) for w in words_upto(sigma, max_len))


def cycle_dfa(n: int) -> Dfa:
    """One letter cycling through n states, state 0 final: minimal with n states."""
    return Dfa(n, ("a",), {"a": tuple((q + 1) % n for q in range(n))}, 0, frozenset({0}))


def singleton_word_dfa(word: str, alphabet: tuple[str, ...]) -> Dfa:
    """Complete DFA accepting exactly the given word."""
    n = len(word) + 2  # spine plus sink
    sink = n - 1
    delta = {}
    for letter in alphabet:
        row = []
        for q in range(n):
            if q < len(word) and word[q] == letter:
                row.append(q + 1)
            else:
                row.append(sink)
        delta[letter] = tuple(row)
    return Dfa(n, alphabet, delta, 0, frozenset({len(word)}))


def finite_language_dfa(words: list[str], alphabet: tuple[str, ...]) -> Dfa:
    """Complete trie DFA accepting exactly the given words."""
    nodes = {"": 0}
    for word in words:
        for i in range(1, len(word) + 1):
            nodes.setdefault(word[:i], len(nodes))
    sink = len(nodes)
    n = sink + 1
    delta = {}
    for letter in alphabet:
        row = [sink] * n
        for prefix, idx in nodes.items():
            target = prefix + letter
            if target in nodes:
                row[idx] = nodes[target]
        delta[letter] = tuple(row)
    finals = frozenset(nodes[w] for w in words)
    return Dfa(n, alphabet, delta, 0, finals)


# --- transformations: the per-state walk ``transformations._cyclic_points``
# replaced.


def naive_cyclic_points(t: Transformation) -> set[int]:
    """States lying on a cycle of the functional graph of t: from each
    state, walk to the first repeated state and collect its cycle."""
    on_cycle: set[int] = set()
    for q in range(t.n):
        seen = set()
        r = q
        while r not in seen:
            seen.add(r)
            r = t.image[r]
        # r is the first repeated state: walk its cycle
        if q in on_cycle:
            continue
        cyc = {r}
        s = t.image[r]
        while s != r:
            cyc.add(s)
            s = t.image[s]
        on_cycle |= cyc
    return on_cycle


# --- transformations: the formatter ``transformations.format_notation``
# replaced.  It tags atoms by kind, rotates each cycle to its least point,
# sorts each collapse's sources, and orders the atoms by a topological
# sort with in-degree counts.


def _naive_format_send(sources: list[int], target: int, n: int) -> str:
    if set(sources) | {target} == set(range(n)):
        return f"(Q->{target})"
    if len(sources) == 1:
        return f"({sources[0]}->{target})"
    inner = ",".join(str(p) for p in sorted(sources))
    return f"({{{inner}}}->{target})"


def naive_format_notation(t: Transformation) -> str:
    """The canonical notation text of t: cycle atoms from the cyclic part
    of t, the remaining moved points grouped into collapses by target,
    emitted so that a collapse into r follows whatever atom moves r,
    smallest moved point first among the unconstrained."""
    n = t.n
    if t.image == tuple(range(t.n)):
        return "1"

    cyclic = naive_cyclic_points(t)
    atoms: list[tuple[str, frozenset[int], object]] = []
    moved_by: dict[int, int] = {}

    seen: set[int] = set()
    for q in sorted(cyclic):
        if q in seen or t.image[q] == q:
            continue
        cyc = [q]
        r = t.image[q]
        while r != q:
            cyc.append(r)
            r = t.image[r]
        seen.update(cyc)
        idx = len(atoms)
        atoms.append(("cycle", frozenset(cyc), tuple(cyc)))
        for p in cyc:
            moved_by[p] = idx

    by_target: dict[int, list[int]] = {}
    for q in range(n):
        if q not in cyclic and t.image[q] != q:
            by_target.setdefault(t.image[q], []).append(q)
    for target, sources in by_target.items():
        idx = len(atoms)
        atoms.append(("send", frozenset(sources), target))
        for p in sources:
            moved_by[p] = idx

    # topological order: the atom moving a collapse's target goes first
    succs: dict[int, list[int]] = {i: [] for i in range(len(atoms))}
    indeg = [0] * len(atoms)
    for i, (kind, _moved, payload) in enumerate(atoms):
        if kind == "send" and payload in moved_by:
            succs[moved_by[payload]].append(i)
            indeg[i] += 1
    ready = [(min(atoms[i][1]), i) for i in range(len(atoms)) if indeg[i] == 0]
    heapq.heapify(ready)
    ordered: list[int] = []
    while ready:
        _, i = heapq.heappop(ready)
        ordered.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (min(atoms[j][1]), j))

    parts = []
    for i in ordered:
        kind, moved, payload = atoms[i]
        if kind == "cycle":
            cyc = list(payload)
            k = cyc.index(min(cyc))
            rotated = cyc[k:] + cyc[:k]
            parts.append("(" + ",".join(str(q) for q in rotated) + ")")
        else:
            parts.append(_naive_format_send(sorted(moved), payload, n))
    return "".join(parts)


def identity(n: int) -> Transformation:
    return Transformation(tuple(range(n)))


# --- transformations: the parser ``transformations.parse_notation``
# replaced, which composed the atoms left to right, building a whole
# transformation per atom.

_NAIVE_ATOM_RE = re.compile(r"1|\(([^()]*)\)")
_NAIVE_INT_RE = re.compile(r"-?\d+")


def _naive_parse_int(text: str, n: int, where: str) -> int:
    if not _NAIVE_INT_RE.fullmatch(text):
        raise NotationError(f"expected a state number in {where}, got {text!r}")
    q = int(text)
    if not 0 <= q < n:
        raise NotationError(f"state {q} in {where} outside 0..{n - 1}")
    return q


def _naive_parse_atom(body: str, n: int) -> Transformation:
    where = f"({body})"
    if "->" in body:
        lhs, _, rhs = body.partition("->")
        target = _naive_parse_int(rhs, n, where)
        if lhs == "Q":
            return send_to(n, range(n), target)
        if lhs.startswith("{") and lhs.endswith("}"):
            members = [_naive_parse_int(p, n, where) for p in lhs[1:-1].split(",")]
            return send_to(n, members, target)
        return send_to(n, [_naive_parse_int(lhs, n, where)], target)
    states = [_naive_parse_int(p, n, where) for p in body.split(",")]
    if len(states) < 2:
        raise NotationError(f"cycle {where} needs at least two states")
    if len(set(states)) != len(states):
        raise NotationError(f"cycle {where} repeats a state")
    return cycle(n, states)


def naive_parse_notation(n: int, text: str) -> Transformation:
    """The atoms of text composed one at a time with ``Transformation.then``."""
    text = text.strip()
    if not text:
        raise NotationError("empty transformation text")
    result = identity(n)
    pos = 0
    while pos < len(text):
        m = _NAIVE_ATOM_RE.match(text, pos)
        if m is None:
            raise NotationError(f"malformed notation at {text[pos:]!r}")
        if m.group(0) != "1":
            result = result.then(_naive_parse_atom(m.group(1), n))
        pos = m.end()
    return result


def random_notation(rng: Random, n: int) -> str:
    """A notation of up to 8 atoms on n >= 2 states, each drawn from every
    kind the parser accepts: a cycle (often overlapping earlier ones), a
    collapse of one state, of a set (repeats allowed) or of every state,
    and the identity 1."""
    atoms = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(5)
        if kind == 0:
            atoms.append("(" + ",".join(map(str, rng.sample(range(n), rng.randint(2, n)))) + ")")
        elif kind == 1:
            atoms.append(f"({rng.randrange(n)}->{rng.randrange(n)})")
        elif kind == 2:
            members = [rng.randrange(n) for _ in range(rng.randint(1, n))]
            atoms.append("({" + ",".join(map(str, members)) + f"}}->{rng.randrange(n)})")
        elif kind == 3:
            atoms.append(f"(Q->{rng.randrange(n)})")
        else:
            atoms.append("1")
    return "".join(atoms)


def random_map_with_cycles_and_tails(rng: Random, n: int) -> Transformation:
    """A random self-map of n >= 3 states with both a cycle through two or
    more states and a tail: a random permutation, not the identity, of k
    states (2 <= k < n), and each other state mapped to one placed before
    it, half the time the one just before, so tails are often long."""
    order = rng.sample(range(n), n)
    k = rng.randint(2, n - 1)
    perm = order[:k]
    while perm == order[:k]:
        perm = rng.sample(order[:k], k)
    image = [0] * n
    for p, r in zip(order[:k], perm):
        image[p] = r
    for i in range(k, n):
        image[order[i]] = order[i - 1] if rng.random() < 0.5 else order[rng.randrange(i)]
    return Transformation(tuple(image))
