"""Total transformations of {0,..,n-1} and their parenthesized notation.

Every witness automaton in this package is generated from a handful of
atom kinds: k-cycles ``(q0,q1,...)``, collapses ``(P->q)``, and the
identity.  Atoms compose left to right: ``compose_many([s, t])``
maps ``q`` to ``t(s(q))``.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, NotationError


@dataclass(frozen=True)
class Transformation:
    """A total self-map of {0,..,n-1}, stored as its image sequence."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = self.image
        n = len(image)
        if image and 0 <= min(image) and max(image) < n:
            return
        for q, r in enumerate(image):
            if not 0 <= r < n:
                raise InputError(f"image[{q}] = {r} outside 0..{n - 1}")

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> "Transformation":
        """A Transformation whose entries the caller guarantees lie in
        0..len(image)-1, built without the range check."""
        t = object.__new__(cls)
        object.__setattr__(t, "image", image)
        return t

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, q: int) -> int:
        return self.image[q]

    def then(self, other: "Transformation") -> "Transformation":
        """The composition applying self first, then other."""
        if other.n != self.n:
            raise InputError(f"cannot compose maps of sizes {self.n} and {other.n}")
        return Transformation(tuple(other.image[r] for r in self.image))

    def __repr__(self):
        return f"Transformation({list(self.image)})"


def cycle(n: int, states: Sequence[int]) -> Transformation:
    """The k-cycle sending states[i] to states[i+1 mod k], identity elsewhere."""
    if len(states) < 2:
        raise InputError("a cycle needs at least two states")
    if len(set(states)) != len(states):
        raise InputError(f"cycle states {list(states)} are not pairwise distinct")
    image = list(range(n))
    for i, q in enumerate(states):
        if not 0 <= q < n:
            raise InputError(f"cycle state {q} outside 0..{n - 1}")
        image[q] = states[(i + 1) % len(states)]
    return Transformation(tuple(image))


def send_to(n: int, sources: Iterable[int], target: int) -> Transformation:
    """The collapse (P->q): every state of P maps to q, identity elsewhere."""
    if not 0 <= target < n:
        raise InputError(f"target {target} outside 0..{n - 1}")
    image = list(range(n))
    for p in sources:
        if not 0 <= p < n:
            raise InputError(f"source {p} outside 0..{n - 1}")
        image[p] = target
    return Transformation(tuple(image))


def compose_many(parts: Sequence[Transformation]) -> Transformation:
    """Left-to-right composition; compose_many([s, t]) maps q to t(s(q))."""
    if not parts:
        raise InputError("compose_many needs at least one transformation")
    result = parts[0]
    for t in parts[1:]:
        result = result.then(t)
    return result


_ATOM_RE = re.compile(r"1|\(([^()]*)\)")
_INT_RE = re.compile(r"-?\d+")


def _parse_int(text: str, n: int, where: str) -> int:
    if not _INT_RE.fullmatch(text):
        raise NotationError(f"expected a state number in {where}, got {text!r}")
    q = int(text)
    if not 0 <= q < n:
        raise NotationError(f"state {q} in {where} outside 0..{n - 1}")
    return q


def _parse_atom(body: str, n: int) -> tuple[list[int] | None, list[int]]:
    """The atom as (points, sources): it moves each points[i] to where
    sources[i] goes next.  A collapse of every state, (Q->r), is (None, [r])."""
    where = f"({body})"
    if "->" in body:
        lhs, _, rhs = body.partition("->")
        target = _parse_int(rhs, n, where)
        if lhs == "Q":
            return None, [target]
        if lhs.startswith("{") and lhs.endswith("}"):
            members = [_parse_int(p, n, where) for p in lhs[1:-1].split(",")]
        else:
            members = [_parse_int(lhs, n, where)]
        return members, [target] * len(members)
    states = [_parse_int(p, n, where) for p in body.split(",")]
    if len(states) < 2:
        raise NotationError(f"cycle {where} needs at least two states")
    if len(set(states)) != len(states):
        raise NotationError(f"cycle {where} repeats a state")
    return states, states[1:] + states[:1]


def parse_notation(n: int, text: str) -> Transformation:
    """Parse a concatenation of atoms, applied left to right.

    Accepted atoms: ``(q0,q1,...)``, ``(p->q)``, ``({p1,p2}->q)``,
    ``(Q->q)``, and ``1`` for the identity.  Overlapping atoms are legal
    and compose sequentially.

    The atoms are parsed left to right, so the first malformed one is
    reported, and composed from the last back: prepending an atom only
    rewrites the points it moves, and a collapse of every state ends the
    composition, since nothing before it matters.  So the cost is linear
    in the text, plus n for the result.
    """
    text = text.strip()
    if not text:
        raise NotationError("empty transformation text")
    atoms = []
    pos = 0
    while pos < len(text):
        m = _ATOM_RE.match(text, pos)
        if m is None:
            raise NotationError(f"malformed notation at {text[pos:]!r}")
        if m.group(0) != "1":
            atoms.append(_parse_atom(m.group(1), n))
        pos = m.end()
    image = list(range(n))  # the composition of the atoms after the current one
    for points, sources in reversed(atoms):
        if points is None:
            image = [image[sources[0]]] * n
            break
        moved = [image[r] for r in sources]
        for p, r in zip(points, moved):
            image[p] = r
    return Transformation._trusted(tuple(image))


def _cyclic_points(t: Transformation) -> set[int]:
    """States lying on a cycle of the functional graph of t: shrink the
    image set until it stops changing, since t permutes the stable set."""
    points = set(t.image)
    while (image := {t.image[q] for q in points}) != points:
        points = image
    return points


def format_notation(t: Transformation) -> str:
    """Canonical notation text; parse_notation inverts it exactly.

    One atom per cycle of t, read from its least point, and one
    collapse per target of the remaining moved points, its sources in
    ascending order.  Atoms are emitted in an order that makes
    sequential application reproduce t (a collapse into r follows the
    one atom that moves r), least moved point first among the ready.
    """
    image = t.image
    n = len(image)
    cyclic = _cyclic_points(t)
    head: dict[int, int] = {}  # point on a cycle -> the cycle's least point
    ready: list[tuple[int, str]] = []  # (least moved point, atom text)
    sources: dict[int, list[int]] = {}
    for q, r in enumerate(image):
        if r == q or q in head:
            continue
        if q not in cyclic:
            sources.setdefault(r, []).append(q)
            continue
        cyc = [q]
        while r != q:
            cyc.append(r)
            r = image[r]
        head.update(dict.fromkeys(cyc, q))
        ready.append((q, "(" + ",".join(map(str, cyc)) + ")"))
    # least point of the atom that moves r -> the collapses into r
    waiting: dict[int, list[tuple[int, str]]] = {}
    for r, ps in sources.items():
        if len(ps) == n - 1:
            atom = (ps[0], f"(Q->{r})")
        elif len(ps) == 1:
            atom = (ps[0], f"({ps[0]}->{r})")
        else:
            atom = (ps[0], "({" + ",".join(map(str, ps)) + f"}}->{r})")
        if image[r] == r:
            ready.append(atom)
        else:  # r lies on a cycle or is a source of the collapse into image[r]
            mover = head[r] if r in head else sources[image[r]][0]
            waiting.setdefault(mover, []).append(atom)
    heapq.heapify(ready)
    parts = []
    while ready:
        least, text = heapq.heappop(ready)
        parts.append(text)
        for atom in waiting.pop(least, ()):
            heapq.heappush(ready, atom)
    return "".join(parts) or "1"
