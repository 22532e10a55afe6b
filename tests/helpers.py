"""Shared corpus generators and independent oracles for the tests.

Oracles here deliberately avoid the library's own algorithms: reachability
is a plain DFS, the quotient count comes from signature refinement, and
language checks walk words directly.
"""

from __future__ import annotations

import itertools
from collections import deque
from random import Random

from suffixconvex.automata import Dfa, accepts, minimize
from suffixconvex.transformations import Transformation


def random_dfa(rng: Random, max_n: int = 6, max_letters: int = 3) -> Dfa:
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_letters)
    alphabet = tuple("abc"[:k])
    delta = {l: tuple(rng.randrange(n) for _ in range(n)) for l in alphabet}
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa(n, alphabet, delta, 0, finals)


def dfa_corpus(seed: int, count: int, max_n: int = 6, max_letters: int = 3) -> list[Dfa]:
    rng = Random(seed)
    return [random_dfa(rng, max_n, max_letters) for _ in range(count)]


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


def naive_semigroup(d: Dfa, cap: int) -> tuple[int, bool]:
    """(size, truncated) of the transition semigroup, closed over tuples.

    Same breadth-first order and cap rule as
    ``measures.transition_semigroup``, composing element by element in a
    generator; the reference for its byte-packed closure.
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
    assert set(d1.alphabet) == set(d2.alphabet)
    return all(accepts(d1, w) == accepts(d2, w) for w in words_upto(d1.alphabet, max_len))


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
