"""Decision procedures for the suffix-convex language classes.

Each predicate answers at the automaton level and, on failure, returns
the length-lexicographically smallest counterexample word (letters
compared in alphabet order), found by BFS over a product construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .automata import Dfa, Nfa, coreachable_states, determinize, reachable_states

Word = tuple[str, ...]


@dataclass(frozen=True)
class ClassReport:
    """Membership of L(d) in the four classes, with counterexamples.

    counterexamples maps a failed class tag to its witness word, when
    one exists (the empty language fails left-ideal without a witness).
    """

    is_left_ideal: bool
    is_suffix_closed: bool
    is_suffix_free: bool
    is_suffix_convex: bool
    counterexamples: dict[str, Word]


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
    return not (set(reachable_states(d)) & d.finals)


def suffix_language(d: Dfa) -> Dfa:
    """DFA for the suffixes of words of L(d).

    NFA whose initial states are the states of d that are both reachable
    and co-reachable, determinized.
    """
    useful = frozenset(reachable_states(d)) & coreachable_states(d)
    transitions = frozenset(
        (p, letter, d.delta[letter](p)) for letter in d.alphabet for p in range(d.n)
    )
    return determinize(Nfa(d.n, d.alphabet, transitions, useful, d.finals))


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


def is_left_ideal(d: Dfa) -> tuple[bool, Optional[Word]]:
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


def is_suffix_closed(d: Dfa) -> tuple[bool, Optional[Word]]:
    """Every suffix of every accepted word is accepted.

    The counterexample is the smallest suffix of an accepted word that
    is itself rejected.
    """
    suff = suffix_language(d)
    start = (suff.initial, d.initial)

    def step(pair, letter):
        return (suff.delta[letter](pair[0]), d.delta[letter](pair[1]))

    def hit(pair):
        return pair[0] in suff.finals and pair[1] not in d.finals

    word = _shortest_word(d.alphabet, start, step, hit)
    return (word is None), word


def is_suffix_free(d: Dfa) -> tuple[bool, Optional[Word]]:
    """No accepted word is a proper suffix of another accepted word.

    The counterexample is the smallest accepted word that also has a
    shorter accepted suffix.
    """
    padded = determinize(_prefixed_nfa(d, allow_empty_prefix=False))
    start = (d.initial, padded.initial)

    def step(pair, letter):
        return (d.delta[letter](pair[0]), padded.delta[letter](pair[1]))

    def hit(pair):
        return pair[0] in d.finals and pair[1] in padded.finals

    word = _shortest_word(d.alphabet, start, step, hit)
    return (word is None), word


def is_suffix_convex(d: Dfa) -> tuple[bool, Optional[Word]]:
    """Whenever z and xyz are accepted, so is yz.

    Equivalent automaton-level test: every word that has an accepted
    suffix and is itself a suffix of an accepted word must be accepted.
    """
    padded = determinize(_prefixed_nfa(d, allow_empty_prefix=True))
    suff = suffix_language(d)
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


def classify(d: Dfa) -> ClassReport:
    results = {
        "left-ideal": is_left_ideal(d),
        "suffix-closed": is_suffix_closed(d),
        "suffix-free": is_suffix_free(d),
        "suffix-convex": is_suffix_convex(d),
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
