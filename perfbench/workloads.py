"""The benchmark's workloads and the references their outputs are checked
against.

A workload's ``setup(sc, seed)`` builds its inputs and returns a list of
items.  Each item is timed on its own; its ``check`` runs after the timed
pass and returns one message per wrong result.  No reference here is read
from the package: closed forms are written out below, and the recorded
references under ``reference/`` were taken from the package at the commit
that introduced this benchmark (see ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


@dataclass
class Item:
    """One timed unit of a pass.

    ``size`` is the number of results it produces (what ``attempted``
    counts); ``check(result)`` returns one message per wrong result.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    size: int = 1


def load_reference(name: str):
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


def _expect(label: str, value: int) -> Callable[[object], list]:
    def check(result):
        return [] if result == value else [f"{label}: got {result}, expected {value}"]

    return check


# --- verify-default --------------------------------------------------------


def entry_row(entry) -> list:
    """A report entry as a JSON row; the tool version is deliberately absent."""
    return [entry.family, entry.quantity, entry.mode, list(entry.dialects), entry.m,
            entry.n, entry.expected, entry.measured, entry.status, entry.reason]


def _check_report(expected: dict) -> Callable[[object], list]:
    expected_rows = expected["entries"]

    def check(report):
        rows = [entry_row(e) for e in report.entries]
        problems = [
            f"row {i}: got {got}, expected {want}"
            for i, (got, want) in enumerate(zip(rows, expected_rows))
            if got != want
        ]
        if len(rows) != len(expected_rows):
            problems.append(f"{len(rows)} rows, expected {len(expected_rows)}")
        counts = [report.passed, report.failed, report.skipped]
        if counts != expected["summary"]:
            problems.append(f"passed/failed/skipped {counts}, expected {expected['summary']}")
        return problems

    return check


def setup_verify_default(sc, seed: int) -> list[Item]:
    # the default run takes no input, so the seed changes nothing here
    expected = load_reference("verify_default.json")
    # look the function up at call time, so a traced pass sees its wrapper
    return [Item("run_verification()", lambda: sc.run_verification(), _check_report(expected),
                 len(expected["entries"]))]


# --- ops-large -------------------------------------------------------------
# closed forms of the claims each operation meets, at sizes beyond the
# default verify caps


def setup_ops_large(sc, seed: int) -> list[Item]:
    # the operations are fixed, so the seed changes nothing here
    m8 = sc.make_witness("regular", 8)
    li40r = (sc.make_dialect("left-ideal", 40, ("a", None, "c", None, "e")),
             sc.make_dialect("left-ideal", 40, ("a", None, "e", None, "c")))
    li40u = (sc.make_dialect("left-ideal", 40, ("a", "b", "c", "d", "e")),
             sc.make_dialect("left-ideal", 40, ("a", "e", "f", "d", "b")))
    li11 = sc.make_dialect("left-ideal", 11, ("a", None, "c", "d", "e"))
    sf12 = sc.make_witness("suffix-free-3", 12)
    cases = [
        # regular product, (m-1) 2^n + 2^(n-1)
        ("regular concat 8x8", lambda: sc.complexity(sc.concat(m8, m8)), 7 * 2**8 + 2**7),
        # left-ideal restricted union, mn
        ("left-ideal union-restricted 40x40",
         lambda: sc.complexity(sc.boolean_restricted(*li40r, "union")), 40 * 40),
        # left-ideal unrestricted union, (m+1)(n+1)
        ("left-ideal union-unrestricted 40x40",
         lambda: sc.complexity(sc.boolean_unrestricted(*li40u, "union")), 41 * 41),
        # left-ideal reversal, 2^(n-1) + 1
        ("left-ideal reverse 11", lambda: sc.complexity(sc.reverse(li11)), 2**10 + 1),
        # suffix-free star, 2^(n-2) + 1
        ("suffix-free-3 star 12", lambda: sc.complexity(sc.star(sf12)), 2**10 + 1),
    ]
    return [Item(label, run, _expect(label, value)) for label, run, value in cases]


# --- measures-large --------------------------------------------------------


def bfs_order(d) -> list[int]:
    """States of d in breadth-first discovery order, letters in alphabet order."""
    order, seen, queue = [d.initial], {d.initial}, deque([d.initial])
    while queue:
        p = queue.popleft()
        for letter in d.alphabet:
            q = d.delta[letter].image[p]
            if q not in seen:
                seen.add(q)
                order.append(q)
                queue.append(q)
    return order


def suffix_closed_atom(n: int, s: frozenset) -> int | None:
    """Claimed complexity of atom A_S of the suffix-closed witness, keyed by
    definition states; None for a key whose atom the claim says is empty."""
    k = len(s)
    if k == 0:
        return n
    if k == n:
        return 2 ** (n - 1)
    if 0 not in s:
        return None
    return 1 + sum(math.comb(n - 1, y) * math.comb(n - y - 1, x - 1)
                   for x in range(1, k + 1) for y in range(1, n - k + 1))


def _check_atom_complexities(n: int, order: list[int]) -> Callable[[object], list]:
    # the non-empty atoms are the empty key and every key holding state 0
    wanted = {frozenset()} | {
        frozenset(q for q in range(n) if bits >> q & 1) for bits in range(2**n) if bits & 1
    }

    def check(measured: dict):
        problems = []
        keys = {frozenset(order[i] for i in key): value for key, value in measured.items()}
        for key in sorted(wanted | set(keys), key=lambda s: (len(s), sorted(s))):
            want = suffix_closed_atom(n, key) if key in wanted else None
            got = keys.get(key)
            if got != want:
                problems.append(f"atom {sorted(key)}: got {got}, expected {want}")
        return problems

    return check


def setup_measures_large(sc, seed: int) -> list[Item]:
    # the measures are fixed, and so is their order, which sets peak RSS
    li7 = sc.make_witness("left-ideal", 7)
    sf8 = sc.make_witness("suffix-free-5", 8)
    li10 = sc.make_dialect("left-ideal", 10, ("a", None, "c", "d", "e"))
    sc6 = sc.make_witness("suffix-closed", 6)
    return [
        # left-ideal semigroup, n^(n-1) + n - 1
        Item("left-ideal semigroup 7", lambda: sc.syntactic_semigroup_size(li7).size,
             _expect("left-ideal semigroup 7", 7**6 + 6)),
        # suffix-free semigroup, (n-1)^(n-2) + n - 2
        Item("suffix-free-5 semigroup 8", lambda: sc.syntactic_semigroup_size(sf8).size,
             _expect("suffix-free-5 semigroup 8", 7**6 + 6)),
        # left-ideal atom count of the reversal dialect, 2^(n-1) + 1
        Item("left-ideal atoms 10", lambda: len(sc.atoms(li10)),
             _expect("left-ideal atoms 10", 2**9 + 1)),
        Item("suffix-closed atom complexities 6",
             lambda: {key: sc.atom_complexity(sc6, key) for key in sc.atoms(sc6)},
             _check_atom_complexities(6, bfs_order(sc6)), 2**5 + 1),
    ]


# --- small-corpus ----------------------------------------------------------
# A fixed pool of random DFAs (n 1..7, 1..3 letters) drawn from POOL_SEED;
# each pool entry's partner for the binary operations is the next entry.
# The workload seed picks PER_STRATUM entries of every (n, letters) stratum
# and their order, so every seed does a like amount of work.

POOL_SEED = 20161003
POOL_PER_STRATUM = 100
PER_STRATUM = 30
STATES = range(1, 8)
LETTERS = range(1, 4)
SEMIGROUP_CAP = 300


def corpus_pool() -> list[tuple]:
    """(n, alphabet, rows, finals) specs; the pool order is shuffled."""
    rng = random.Random(POOL_SEED)
    pool = []
    for n in STATES:
        for k in LETTERS:
            for _ in range(POOL_PER_STRATUM):
                alphabet = "abc"[:k]
                rows = {letter: [rng.randrange(n) for _ in range(n)] for letter in alphabet}
                finals = sorted(q for q in range(n) if rng.random() < 0.5)
                pool.append((n, alphabet, rows, finals))
    rng.shuffle(pool)
    return pool


def corpus_selection(pool: list[tuple], seed: int) -> list[int]:
    rng = random.Random(seed)
    strata: dict[tuple[int, int], list[int]] = {}
    for index, (n, alphabet, _, _) in enumerate(pool):
        strata.setdefault((n, len(alphabet)), []).append(index)
    chosen = [i for key in sorted(strata) for i in rng.sample(strata[key], PER_STRATUM)]
    rng.shuffle(chosen)
    return chosen


def corpus_results(sc, d, partner) -> dict:
    """Language-level results of one corpus item (what the digest covers)."""
    text = sc.write_dfa(d, name="item")
    again = sc.read_dfa(text)
    report = sc.classify(again)
    semigroup = sc.syntactic_semigroup_size(d, SEMIGROUP_CAP)
    return {
        "round_trip": again == d,
        "complexity": sc.complexity(d),
        "reverse": sc.complexity(sc.reverse(d)),
        "star": sc.complexity(sc.star(d)),
        "union": sc.complexity(sc.boolean_unrestricted(d, partner, "union")),
        "concat": sc.complexity(sc.concat(d, partner)),
        "classes": [report.is_left_ideal, report.is_suffix_closed,
                    report.is_suffix_free, report.is_suffix_convex],
        "counterexamples": {tag: "".join(word) for tag, word in sorted(report.counterexamples.items())},
        "quotients": list(sc.quotient_complexities(d)),
        "atoms": len(sc.atoms(d)),
        "semigroup": [semigroup.size, semigroup.truncated],
    }


def corpus_digest(results: dict) -> str:
    language = {key: value for key, value in results.items() if key != "round_trip"}
    text = json.dumps(language, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_corpus_item(sc, index: int, d, want: str) -> Callable[[object], list]:
    def check(results):
        problems = []
        if not results["round_trip"]:
            problems.append(f"pool[{index}]: read_dfa(write_dfa(d)) != d")
        if corpus_digest(results) != want:
            problems.append(f"pool[{index}]: digest {corpus_digest(results)}, expected {want}")
        # atoms of L are the states of the minimal DFA of the reversal
        if results["atoms"] != sc.minimize(sc.reverse(sc.minimize(d))).n:
            problems.append(f"pool[{index}]: atom count differs from the reversal's minimal size")
        return problems

    return check


def build_dfa(sc, spec):
    n, alphabet, rows, finals = spec
    return sc.Dfa(n, tuple(alphabet), {letter: tuple(rows[letter]) for letter in alphabet}, 0, frozenset(finals))


def setup_small_corpus(sc, seed: int) -> list[Item]:
    pool = corpus_pool()
    digests = load_reference("corpus_digests.json")["digests"]
    items = []
    for index in corpus_selection(pool, seed):
        d = build_dfa(sc, pool[index])
        partner = build_dfa(sc, pool[(index + 1) % len(pool)])
        items.append(Item(
            f"pool[{index}]",
            lambda d=d, partner=partner: corpus_results(sc, d, partner),
            _check_corpus_item(sc, index, d, digests[index]),
        ))
    return items


WORKLOADS = {
    "verify-default": setup_verify_default,
    "ops-large": setup_ops_large,
    "measures-large": setup_measures_large,
    "small-corpus": setup_small_corpus,
}
