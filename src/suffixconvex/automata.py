"""Complete DFAs and the algorithms on them.

All automata live on the dense state set {0,..,n-1}.  DFAs are complete
by construction: every letter of the alphabet carries a total
transformation of the state set.  Operations that renumber states
(determinize, minimize) always use breadth-first discovery order from
the initial state, scanning letters in alphabet order, so results are
reproducible bit for bit.

The kernels (reachability, subset construction, minimization) work on
plain ints: they index the ``image`` tuples of the transformations
directly and hold subsets as int bitmasks.  ``_walk`` is the one walk
that numbers the states reachable from a start; when that numbering is
the identity, as for every output of ``determinize`` and the direct
product, it hands the images back as the rows.  ``_occurring`` adds
co-reachability over the walked states: the one pass that finds a DFA's
useful part and its occurring letters, for Suff(L),
``occurring_letters`` and ``reverse_complexity``.  ``_subsets`` is the
one full subset construction: its callers (reversal, star,
concatenation, ``suffix_language``, atoms) hand it the nondeterministic
moves as bitmask steps, one mask per (letter, state), with any epsilon
moves already folded in.  ``_subset_union`` is the one member walk: it
packs each state's masks under every letter into one int, so a subset's
successors under all letters are one OR per member, and each letter's is
cut out with a shift and a mask.  A caller that only counts the subsets
gets no rows.  The classify search in ``classifiers`` takes
``_subset_union`` without ``_subsets``, to expand the subsets of Σ⁺L and
Suff(L) only as far as it reaches, and the atom quotient search in
``measures`` takes it both to step its pairs and to name them.
``_hopcroft`` is the one refinement: Hopcroft's algorithm with a
worklist of blocks, each popped block splitting the partition by its
preimage under every letter, and an early exit once every class is a
single state.  A state alone in its block is settled, since such a
block can never split, and a preimage edge into it is not marked.  It
returns the number of classes and the class of each state;
``_class_rows`` turns that into the quotient's rows, which ``minimize``
numbers with ``_walk``.  ``_components`` is the one
strongly-connected-component pass: the semigroup count splits its orbit
of image sets with it, and ``_reach_counts`` counts on it the states
reachable from every state at once, for the quotient and atom
complexities.  A kernel whose rows are valid by construction
(determinize, minimize, the direct product, the atom automaton) builds
its result with ``Dfa._trusted``, which skips the checks of
``Dfa.__post_init__``; every other ``Dfa`` is validated.  A query that
needs only a size (``complexity`` here, the quotient complexities and
the atom complexities up to the atom limit in ``measures``) counts
states, refinement classes or atom quotients and builds no minimal
``Dfa`` for it: ``complexity`` is one walk and one refinement, and
reads the letters that occur off the classes.  ``reverse_complexity`` runs no refinement at all: by
Brzozowski's theorem the subset construction on the reversal of an
accessible DFA is minimal, so it counts the subsets.  A DFA whose
construction proves it minimal is marked so (``_mark_minimal``): the
result of ``minimize``, of ``operations.reverse`` on an accessible DFA
and of ``measures.atom_automaton``.  ``minimize`` returns a marked DFA
itself, and ``complexity`` counts its states with neither the walk nor
the refinement; the mark is never put on an operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .errors import InputError
from .transformations import Transformation


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton with named letters.

    Instances must not be mutated, ``delta`` included: what is kept on an
    instance relies on that.  That is the atom table of ``measures``, and
    the mark ``_minimal`` on a DFA whose construction proves it minimal,
    accessible from initial state 0 and numbered as ``minimize`` numbers
    it (see ``_mark_minimal``).  Neither is a field: the constructor,
    ``==`` and ``repr`` ignore them, and any copy made through the
    constructor starts unmarked."""

    n: int
    alphabet: tuple[str, ...]
    delta: dict[str, Transformation]
    initial: int
    finals: frozenset[int]

    _minimal = False  # not a field: no annotation

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "finals", frozenset(self.finals))
        delta = {
            letter: t if isinstance(t, Transformation) else Transformation(tuple(t))
            for letter, t in self.delta.items()
        }
        object.__setattr__(self, "delta", delta)
        if self.n < 1:
            raise InputError("a DFA needs at least one state")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise InputError("alphabet letters must be unique")
        if set(delta) != set(self.alphabet):
            raise InputError("delta must define exactly the alphabet letters")
        for letter, t in delta.items():
            if t.n != self.n:
                raise InputError(f"transformation of {letter!r} has size {t.n}, expected {self.n}")
        if not 0 <= self.initial < self.n:
            raise InputError(f"initial state {self.initial} outside 0..{self.n - 1}")
        if not self.finals <= frozenset(range(self.n)):
            raise InputError("final states outside the state set")

    @classmethod
    def _trusted(
        cls, n: int, alphabet: tuple[str, ...], rows: Sequence[Sequence[int]], initial: int,
        finals: frozenset[int],
    ) -> "Dfa":
        """A Dfa from a kernel's rows (one image sequence per letter), built
        without the checks of __post_init__: the caller guarantees distinct
        letters, n >= 1, every row of length n with entries in range, and
        initial and finals inside the state set."""
        # object.__setattr__ rather than writing __dict__, which would turn
        # the instance's inline attribute storage into a slower real dict
        d = object.__new__(cls)
        put = object.__setattr__
        put(d, "n", n)
        put(d, "alphabet", alphabet)
        put(d, "delta", {
            letter: Transformation._trusted(tuple(row)) for letter, row in zip(alphabet, rows)
        })
        put(d, "initial", initial)
        put(d, "finals", finals)
        return d

    def step(self, q: int, letter: str) -> int:
        try:
            t = self.delta[letter]
        except KeyError:
            raise InputError(f"letter {letter!r} not in alphabet {list(self.alphabet)}") from None
        return t(q)


def apply_word(d: Dfa, q: int, word: Iterable[str]) -> int:
    """The state reached from q by reading word left to right."""
    for letter in word:
        q = d.step(q, letter)
    return q


def accepts(d: Dfa, word: Iterable[str]) -> bool:
    return apply_word(d, d.initial, word) in d.finals


def reachable_states(d: Dfa) -> list[int]:
    """States reachable from the initial state, in BFS discovery order."""
    return _walk(d.n, [d.delta[letter].image for letter in d.alphabet], d.initial, ())[0]


def _coreachable(n: int, rows: Sequence[Sequence[int]], finals: Iterable[int]) -> list[bool]:
    """live[q]: some final state can be reached from q (rows holds one
    image sequence per letter)."""
    pre: list[list[int]] = [[] for _ in range(n)]
    for row in rows:
        for p, q in enumerate(row):
            pre[q].append(p)
    live = [False] * n
    stack = list(finals)
    for q in stack:
        live[q] = True
    while stack:
        for p in pre[stack.pop()]:
            if not live[p]:
                live[p] = True
                stack.append(p)
    return live


def _subset_union(
    steps: Sequence[Sequence[int]], start: int
) -> tuple[Callable[[int], int], list[int], int]:
    """The one walk over a subset's members, as (union, shifts, mask):
    union(subset) ORs its members' packed masks, whatever they stand
    for; its successor under c is ``union(subset) >> shifts[c] & mask``.

    Each state's masks under every letter are packed into one int, letter
    c at bits c·width to c·width+width-1, width the length of a letter's
    steps (a single letter's masks may be wider), so a subset's successors
    under all letters are one OR per member.
    """
    # with no letters only start is ever expanded, so its bits size the packing
    width = len(steps[0]) if steps else start.bit_length()
    shifts = [c * width for c in range(len(steps))]
    packed = [0] * width
    for shift, step in zip(shifts, steps):
        for p, target in enumerate(step):
            packed[p] |= target << shift

    def union(subset: int) -> int:
        joined = 0
        rest = subset
        while rest:
            low = rest & -rest
            joined |= packed[low.bit_length() - 1]
            rest ^= low
        return joined

    return union, shifts, (1 << width) - 1


def _subsets(
    steps: Sequence[Sequence[int]], start: int, numbered: bool = True
) -> tuple[list[int], list[list[int]]]:
    """Subset construction on bitmask steps.

    Subsets are int bitmasks, bit p standing for state p, and steps[c][p]
    is the mask of the states letter c takes p to; a subset's successor is
    the union of its members' steps, taken for every letter at once by
    ``_subset_union``.  Returns (order, rows): order lists the
    subsets reachable from start in BFS discovery order, letters scanned
    in the order of steps, and rows[c][i] is the number of the subset
    letter c takes order[i] to.  The empty subset, when reachable, is an
    ordinary subset.  A caller that only counts or lists the subsets
    passes numbered=False and gets the rows empty.
    """
    union_of, shifts, mask = _subset_union(steps, start)
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in steps]
    for subset in order:  # the list grows while it is read: a FIFO queue
        union = union_of(subset)
        if not numbered:
            for shift in shifts:
                target = union >> shift & mask
                if target not in index:
                    index[target] = len(order)
                    order.append(target)
            continue
        for shift, row in zip(shifts, rows):
            target = union >> shift & mask
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                order.append(target)
            row.append(j)
    return order, rows


def _preimages(n: int, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Bitmask steps of the reversed transitions of {0,..,n-1}: pre[c][q]
    is the mask of the states p that rows[c] takes to q."""
    steps = []
    for image in rows:
        pre = [0] * n
        for p, q in enumerate(image):
            pre[q] |= 1 << p
        steps.append(pre)
    return steps


def determinize(
    alphabet: tuple[str, ...], steps: Sequence[Sequence[int]], start: int, accepting: int
) -> Dfa:
    """The DFA of the subsets reachable from start (a bitmask) under the
    bitmask steps, one row of steps per letter of alphabet, as ``_subsets``
    numbers them; a subset is final when it meets the accepting mask, and
    the empty subset, when reachable, becomes a sink.  A caller with
    epsilon moves folds each state's closure into the steps and start.
    """
    order, rows = _subsets(steps, start)
    finals = frozenset(i for i, subset in enumerate(order) if subset & accepting)
    return Dfa._trusted(len(order), alphabet, rows, 0, finals)


def _hopcroft(
    n: int, rows: Sequence[Sequence[int]], finals: Iterable[int]
) -> tuple[int, list[int]]:
    """Partition {0,..,n-1} (n >= 1) into classes of equivalent states.

    rows holds one image sequence per letter: rows[c][p] is the state
    letter c takes p to.  Returns (count, block_of): the classes are
    0..count-1, in no particular order, and block_of[q] is the class of q.

    Hopcroft's algorithm ("An n log n algorithm for minimizing states in a
    finite automaton", 1971) on the refinable partition of Valmari and
    Lehtinen ("Efficient minimization of DFAs with partial transition
    functions", STACS 2008).  Starting from finals / non-finals, a worklist
    of blocks is drained.  A popped block is read once, as a snapshot of
    its states, and splits the partition by its preimage under each letter
    in turn: the preimage is grouped by the block each state sits in, and
    only those blocks are split, at a cost of the states moved.  The
    snapshot stays a union of blocks if the popped block itself splits
    meanwhile, so each split is sound.  A split block that is queued
    queues its new part too; one that is not queues its smaller half.  So
    each time a state's block is popped, the block is at most half the size
    it was the last time, and with k letters the whole refinement takes
    O(k·n log n) time.  A block of one state can never split, so its state
    is settled: block_of holds ~b for it while the refinement runs, and a
    preimage edge into a settled state is passed over without being marked
    (Valmari and Lehtinen).  The refinement stops as soon as every class is
    a single state.
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
    if cut == 1:
        block_of[elems[0]] = ~0
    if cut == n - 1:
        block_of[elems[cut]] = ~1

    pre: list[list[list[int]]] = []
    for image in rows:
        table: list[list[int]] = [[] for _ in range(n)]
        for p, q in enumerate(image):
            table[q].append(p)
        pre.append(table)

    # Block b holds elems[first[b]:end[b]]; while a preimage is gathered,
    # the block's states in it are moved to elems[first[b]:mid[b]].
    loc = [0] * n
    for i, q in enumerate(elems):
        loc[q] = i
    first, end, mid = [0, cut], [cut, n], [0, cut]

    smaller = 0 if cut <= n - cut else 1
    waiting = [smaller]
    queued = [False, False]
    queued[smaller] = True

    while waiting and len(first) < n:
        b = waiting.pop()
        queued[b] = False
        splitter = elems[first[b]:end[b]]
        for table in pre:
            touched = []
            for q in splitter:
                for p in table[q]:
                    y = block_of[p]
                    if y < 0:  # settled
                        continue
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
                if m - f == 1:
                    block_of[elems[f]] = ~new
                else:
                    for i in range(f, m):
                        block_of[elems[i]] = new
                if e - m == 1:
                    block_of[elems[m]] = ~y
                if queued[y] or m - f <= e - m:
                    queued.append(True)
                    waiting.append(new)
                else:
                    queued.append(False)
                    queued[y] = True
                    waiting.append(y)
    return len(first), [x if x >= 0 else ~x for x in block_of]


def _walk(
    n: int, images: Sequence[Sequence[int]], initial: int, finals: Iterable[int]
) -> tuple[list[int], Sequence[Sequence[int]], frozenset[int]]:
    """Number the states reachable from initial by BFS discovery order,
    letters scanned in the order of images.

    Returns (order, rows, reached finals): order[i] is the i-th state
    found, rows[c][i] is the number of the state letter c takes order[i]
    to, and the reached finals are the numbers of the reachable finals.
    When the numbering is the identity, as it is for every output of
    ``determinize`` and of the direct product, rows is images itself.
    """
    number = [-1] * n
    number[initial] = 0
    order = [initial]
    for p in order:  # the list grows while it is read: a FIFO queue
        for image in images:
            q = image[p]
            if number[q] < 0:
                number[q] = len(order)
                order.append(q)
    if order == list(range(n)):
        return order, images, frozenset(finals)
    rows = [[number[image[p]] for p in order] for image in images]
    return order, rows, frozenset(number[q] for q in finals if number[q] >= 0)


def _components(n: int, rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Strongly connected components of the graph on {0,..,n-1} whose
    edges are p -> rows[c][p].

    Returns (count, comp): comp[q] is the component of q, numbered sinks
    first, so every edge leads to a component with the same or a smaller
    number.  Tarjan's algorithm ("Depth-first search and linear graph
    algorithms", 1972), iterative, so deep graphs do not hit the
    recursion limit.
    """
    succ = list(zip(*rows)) if rows else [()] * n  # succ[p]: p's targets, letter by letter
    index = [0] * n  # discovery number from 1; 0 while unvisited
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    count = 0
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        path = [(root, iter(succ[root]))]  # the DFS path, each with its unread edges
        while path:
            p, edges = path[-1]
            for q in edges:
                if not index[q]:
                    counter += 1
                    index[q] = low[q] = counter
                    stack.append(q)
                    path.append((q, iter(succ[q])))
                    break
                if comp[q] < 0 and index[q] < low[p]:  # q is still on the stack
                    low[p] = index[q]
            else:
                path.pop()
                if path and low[p] < low[path[-1][0]]:
                    low[path[-1][0]] = low[p]
                if low[p] == index[p]:
                    while True:
                        q = stack.pop()
                        comp[q] = count
                        if q == p:
                            break
                    count += 1
    return count, comp


def _reach_counts(n: int, rows: Sequence[Sequence[int]]) -> list[int]:
    """The number of states reachable from each state of {0,..,n-1} (itself
    included) along p -> rows[c][p].

    One pass over the components, sinks first: a component's reach mask is
    its members OR'd with the masks of the components it has edges into,
    all of which are complete by then.  A mask has one bit per state, the
    members of a component one run of bits, and a component takes each
    successor's mask once, so the work on masks follows the edges between
    components, not between states.
    """
    count, comp = _components(n, rows)
    size = [0] * count
    for x in comp:
        size[x] += 1
    reach = [(1 << k) - 1 << start for k, start in zip(size, accumulate(size, initial=0))]
    took = [-1] * count  # took[y]: the component whose mask last took y's
    for q in sorted(range(n), key=comp.__getitem__):
        x = comp[q]
        mask = reach[x]
        for row in rows:
            y = comp[row[q]]
            if took[y] != x:
                took[y] = x
                mask |= reach[y]
        reach[x] = mask
    counts = [mask.bit_count() for mask in reach]
    return [counts[x] for x in comp]


def _class_rows(
    rows: Sequence[Sequence[int]], count: int, block_of: Sequence[int]
) -> list[list[int]]:
    """The rows of the quotient by the classes ``_hopcroft`` returns: the
    class letter c takes class x to.  Equivalent states move into one
    class, so any member stands for its class."""
    member = [0] * count
    for q, x in enumerate(block_of):
        member[x] = q
    return [[block_of[row[q]] for q in member] for row in rows]


def _mark_minimal(d: Dfa) -> Dfa:
    """Mark d, fresh from a construction that proves it minimal, accessible
    from initial state 0 and numbered as ``minimize`` numbers it: then
    ``minimize`` returns d itself and ``complexity`` counts its states with
    no walk and no refinement.  Returns d."""
    object.__setattr__(d, "_minimal", True)
    return d


def minimize(d: Dfa) -> Dfa:
    """The minimal complete DFA of L(d), canonically renumbered.

    Unreachable states are dropped, equivalent states merged, and the
    classes numbered by BFS discovery order from the initial class with
    letters scanned in alphabet order; the result is idempotent under
    repeated minimization.  The result is marked minimal, and a DFA
    marked minimal is its own result.
    """
    if d._minimal:
        return d
    # one walk numbers the reachable states and reads their rows, a second
    # numbers the classes, every one reachable from the initial state's
    images = [d.delta[letter].image for letter in d.alphabet]
    order, rows, finals = _walk(d.n, images, d.initial, d.finals)
    count, block_of = _hopcroft(len(order), rows, finals)
    class_finals = {block_of[q] for q in finals}
    _, out, out_finals = _walk(count, _class_rows(rows, count, block_of), block_of[0], class_finals)
    return _mark_minimal(Dfa._trusted(count, d.alphabet, out, 0, out_finals))


def union_alphabet(d1: Dfa, d2: Dfa) -> tuple[str, ...]:
    """d1's letters in order, then d2's letters not already present."""
    return d1.alphabet + tuple(l for l in d2.alphabet if l not in d1.alphabet)


def _occurring(
    d: Dfa,
) -> tuple[int, Sequence[Sequence[int]], frozenset[int], list[bool], list[bool]]:
    """One walk over the reachable states: (n, rows, finals) as ``_walk``
    numbers them, live[q] for whether a final state can be reached from q,
    and per letter whether it occurs in an accepted word: whether it takes
    some reachable state into a live one."""
    images = [d.delta[letter].image for letter in d.alphabet]
    order, rows, finals = _walk(d.n, images, d.initial, d.finals)
    live = _coreachable(len(order), rows, finals)
    return len(order), rows, finals, live, [any(live[q] for q in row) for row in rows]


def occurring_letters(d: Dfa) -> frozenset[str]:
    """Letters appearing in at least one accepted word."""
    occurs = _occurring(d)[4]
    return frozenset(letter for letter, ok in zip(d.alphabet, occurs) if ok)


def complexity(d: Dfa) -> int:
    """Quotient complexity of L(d): minimal DFA size over the occurring letters.

    Letters that occur in no accepted word are dropped before counting,
    so L = a* over {a, b} has complexity 1: its sink is unreachable once
    b is gone.  ``measures.syntactic_semigroup_size`` keeps the full
    alphabet instead (2 for the same language).

    One walk and one refinement over all letters, or neither on a DFA
    marked minimal, whose states are its classes.  The empty language is
    at most one class, the non-final one every letter keeps, and a letter
    occurs when it takes some reachable state out of it; the initial
    state's successor settles most letters.  A reachable state's language
    has no word with a letter that never occurs, so dropping letters
    leaves the classes reachable from the initial one over the rest.
    """
    images = [d.delta[letter].image for letter in d.alphabet]
    if d._minimal:  # accessible from state 0, every state its own class
        rows, finals, count, block_of = images, d.finals, d.n, range(d.n)
    else:
        order, rows, finals = _walk(d.n, images, d.initial, d.finals)
        count, block_of = _hopcroft(len(order), rows, finals)
    occurs = []
    for row in rows:
        s = row[0]  # the initial state's successor
        x = block_of[s]
        # s is out of the empty language when final or moved to another
        # class; else x is the empty language and the row decides
        occurs.append(
            s in finals or any(block_of[other[s]] != x for other in rows)
            or any(block_of[q] != x for q in row)
        )
    if all(occurs):
        return count
    kept = _class_rows([row for row, ok in zip(rows, occurs) if ok], count, block_of)
    return len(_walk(count, kept, block_of[0], ())[0])


def reverse_complexity(d: Dfa) -> int:
    """``complexity(reverse(d))`` with no refinement: the subset
    construction on the reversal of an accessible DFA is minimal
    (Brzozowski, "Canonical regular expressions and minimal state graphs
    for definite events", 1962), so this counts the subsets reachable
    from the finals under the reversed steps of the occurring letters.
    Only states with a non-empty language enter a subset, and those are
    reachable over the occurring letters, so the walk stays accessible.
    """
    n, rows, finals, _, occurs = _occurring(d)
    steps = _preimages(n, [row for row, ok in zip(rows, occurs) if ok])
    return len(_subsets(steps, sum(1 << q for q in finals), numbered=False)[0])
