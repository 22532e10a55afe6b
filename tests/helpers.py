"""Shared corpus generators and independent oracles for the tests.

Oracles here deliberately avoid the library's own algorithms: reachability
is a plain DFS, the quotient count comes from signature refinement, and
language checks walk words directly.
"""

from __future__ import annotations

import itertools
from random import Random

from suffixconvex.automata import Dfa, accepts
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


def words_upto(alphabet, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def language_upto(d: Dfa, max_len: int) -> set[tuple[str, ...]]:
    return {w for w in words_upto(d.alphabet, max_len) if accepts(d, w)}


def same_language_upto(d1: Dfa, d2: Dfa, max_len: int) -> bool:
    assert set(d1.alphabet) == set(d2.alphabet)
    return all(accepts(d1, w) == accepts(d2, w) for w in words_upto(d1.alphabet, max_len))


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
