import itertools
import re
from random import Random

import pytest
from helpers import (
    identity,
    naive_cyclic_points,
    naive_format_notation,
    naive_parse_notation,
    random_map_with_cycles_and_tails,
    random_notation,
)
from hypothesis import given, strategies as st

from suffixconvex.errors import InputError, NotationError
from suffixconvex.transformations import (
    Transformation,
    _cyclic_points,
    compose_many,
    cycle,
    format_notation,
    parse_notation,
    send_to,
)


@pytest.mark.parametrize(
    "image,message",
    [
        ((0, -1, 2, -3), "image[1] = -1 outside 0..3"),
        ((0, 1, 4, 7), "image[2] = 4 outside 0..3"),
        ((5, -2, 0), "image[0] = 5 outside 0..2"),
    ],
)
def test_transformation_rejects_out_of_range_entries(image, message):
    # the message names the first bad index
    with pytest.raises(InputError) as caught:
        Transformation(image)
    assert str(caught.value) == message


def test_cycle_images():
    assert cycle(4, [1, 2, 3]).image == (0, 2, 3, 1)
    assert cycle(4, [0, 1]).image == (1, 0, 2, 3)


def test_cycle_power_is_identity():
    t = cycle(3, [0, 1, 2])
    assert compose_many([t, t, t]) == identity(3)
    s = cycle(7, [2, 4, 6])
    assert compose_many([s, s, s]) == identity(7)


def test_cycle_rejects_bad_input():
    with pytest.raises(InputError):
        cycle(4, [1, 1, 2])
    with pytest.raises(InputError):
        cycle(4, [3])
    with pytest.raises(InputError):
        cycle(4, [2, 4])


def test_send_to_images():
    assert send_to(4, {3}, 0).image == (0, 1, 2, 0)
    assert send_to(4, range(4), 1).image == (1, 1, 1, 1)
    assert send_to(5, (), 2) == identity(5)
    with pytest.raises(InputError):
        send_to(4, {4}, 0)
    with pytest.raises(InputError):
        send_to(4, {0}, 7)


def test_compose_two_transpositions():
    s = cycle(3, [0, 1])
    t = cycle(3, [1, 2])
    assert compose_many([s, t]) == cycle(3, [0, 2, 1])


def test_compose_single_and_errors():
    t = cycle(4, [1, 2])
    assert compose_many([t]) == t
    with pytest.raises(InputError):
        compose_many([cycle(3, [0, 1]), cycle(4, [0, 1])])
    with pytest.raises(InputError):
        compose_many([])


def test_compose_send_then_cycle():
    got = compose_many([send_to(6, {0}, 5), cycle(6, [1, 2, 3, 4])])
    assert got.image == (5, 2, 3, 4, 1, 5)


@given(st.data())
def test_compose_is_associative(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    imgs = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, n - 1) for _ in range(n)]),
            min_size=3,
            max_size=3,
        )
    )
    a, b, c = (Transformation(img) for img in imgs)
    assert compose_many([compose_many([a, b]), c]) == compose_many([a, compose_many([b, c])])


def test_parse_examples():
    assert parse_notation(4, "(1,2,3)").image == (0, 2, 3, 1)
    assert parse_notation(4, "1") == identity(4)
    assert parse_notation(6, "(0->5)(1,2)").image == (5, 2, 1, 3, 4, 5)
    assert parse_notation(4, "(Q->2)").image == (2, 2, 2, 2)
    assert parse_notation(5, "({1,3}->0)").image == (0, 0, 2, 0, 4)


def test_parse_applies_overlapping_atoms_left_to_right():
    # (1,3) then (0->1): 1 ends at 3, 3 ends at 1, 0 ends at 1
    assert parse_notation(4, "(1,3)(0->1)").image == (1, 3, 2, 1)
    # reversed order differs: 0 is sent to 1 first, then carried to 3
    assert parse_notation(4, "(0->1)(1,3)").image == (3, 3, 2, 1)


@pytest.mark.parametrize(
    "text",
    [
        "", "(1,2", "(1,,2)", "(1,1,2)", "(9,1)", "(x->1)", "({}->1)", "(1->9)", "foo", "(1)(2,3)",
        "({0,}->1)", "({,0}->1)", "({0,,1}->2)",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(NotationError):
        parse_notation(4, text)


def test_parse_matches_naive_parse():
    rng = Random(61)
    texts = [(n, random_notation(rng, n)) for n in (2, 3, 5, 8) for _ in range(500)]
    texts += [(n, format_notation(random_map_with_cycles_and_tails(rng, n))) for n in range(3, 40)]
    for n, text in texts:
        assert parse_notation(n, text) == naive_parse_notation(n, text), (n, text)
    def having(pattern):
        return sum(bool(re.search(pattern, text)) for _, text in texts)

    # every atom kind, the identity 1 included, and (Q->r) after other atoms
    assert min(having(r"\(Q->"), having(r"\(\{"), having(r"(^|\))1"), having(r".\(Q->")) >= 200
    # at n = 3 any two cycles share a point
    cycles = re.compile(r"\(\d+(,\d+)+\)")
    assert sum(n == 3 and len(cycles.findall(text)) >= 2 for n, text in texts) >= 100


@pytest.mark.parametrize(
    "text",
    [
        "", "  ", "(1,2", "(1,,2)", "(1,1,2)", "(9,1)", "(x->1)", "({}->1)", "(1->9)", "foo",
        "(1)(2,3)", "(0,1)(2,9)", "(0,1)x(1,2)", "(Q->4)", "({1,x}->2)", "(0->1)(1)",
        "(Q->1)(0,7)", "1 1", "(0,1)(-1,2)", "((0,1))", "(0,1)(2->)", "({0,}->1)", "({,0}->1)",
        "({0,,1}->2)",
    ],
)
def test_parse_errors_match_naive_parse(text):
    with pytest.raises(NotationError) as fast:
        parse_notation(4, text)
    with pytest.raises(NotationError) as naive:
        naive_parse_notation(4, text)
    assert str(fast.value) == str(naive.value)


def test_format_examples():
    assert format_notation(identity(5)) == "1"
    assert format_notation(cycle(5, [2, 3, 1])) == "(1,2,3)"
    assert format_notation(send_to(5, range(5), 1)) == "(Q->1)"
    assert format_notation(send_to(5, {3}, 0)) == "(3->0)"
    assert format_notation(Transformation((1, 4, 4, 4, 4))) == "({1,2,3}->4)(0->1)"


@given(st.data())
def test_format_parse_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    image = data.draw(st.tuples(*[st.integers(0, n - 1) for _ in range(n)]))
    t = Transformation(image)
    assert parse_notation(n, format_notation(t)) == t


def test_format_matches_naive_format():
    # every map of at most 5 states, then random maps with cycles and tails
    maps = [Transformation(image) for n in range(1, 6) for image in itertools.product(range(n), repeat=n)]
    assert len(maps) == 3413
    rng = Random(53)
    maps += [random_map_with_cycles_and_tails(rng, rng.randint(6, 40)) for _ in range(2000)]
    for t in maps:
        assert format_notation(t) == naive_format_notation(t), t


def test_cyclic_points_match_naive_walk():
    rng = Random(97)
    maps = [(0,), (0, 1, 2), (1, 2, 0), (1, 2, 3, 3), (1, 0, 0, 1, 2)]
    for _ in range(600):
        n = rng.randint(1, 256)
        # images from a random subset: the smaller it is, the longer the tails
        targets = rng.sample(range(n), rng.randint(1, n))
        maps.append(tuple(rng.choice(targets) for _ in range(n)))
    maps.append(tuple(range(1, 256)) + (0,))  # one cycle through 256 states
    maps.append(tuple(range(1, 256)) + (255,))  # a 255-step tail into a fixed point
    for image in maps:
        t = Transformation(image)
        assert _cyclic_points(t) == naive_cyclic_points(t)


def test_disjoint_atoms_commute():
    pairs = [
        (cycle(6, [0, 1]), cycle(6, [2, 3, 4])),
        (send_to(6, {0, 1}, 2), cycle(6, [4, 5])),
        (send_to(6, {5}, 3), send_to(6, {0}, 1)),
    ]
    for s, t in pairs:
        assert compose_many([s, t]) == compose_many([t, s])
