import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilfibre.conformance import compositions_of, verify_composition
from nilfibre.core import (
    Diagram,
    InvalidInput,
    NeighbouringPair,
    boxes_below_band,
    neighbouring_pairs,
    parse_composition,
    surrounding_pair,
    true_degree,
)


compositions = st.lists(st.integers(1, 4), min_size=1, max_size=6).map(tuple)


def test_parse_roundtrip():
    d = Diagram(parse_composition("2,1,1,2"))
    assert d.parts == (2, 1, 1, 2)
    assert d.n == 6 and d.k == 4


@pytest.mark.parametrize("bad", ["", "2,,1", "a", "0,1", "-1", "1.5", "1_1", "\u0662,1"])
def test_parse_rejects(bad):
    with pytest.raises(InvalidInput):
        Diagram(parse_composition(bad))


def test_parts_given_as_a_list_are_kept_as_a_tuple():
    d = Diagram([2, 1, 1, 2])
    assert d.parts == (2, 1, 1, 2)
    assert d == Diagram((2, 1, 1, 2)) and hash(d) == hash(Diagram((2, 1, 1, 2)))
    # the tableaux hold this diagram, and the generator cache is keyed by its parts
    assert verify_composition(d)["pass"]


def test_empty_composition_rejected():
    with pytest.raises(InvalidInput):
        Diagram(())


@pytest.mark.parametrize("parts", [(2, 0), (1, -1), (1, True), (1.0,), ("1",)])
def test_bad_parts_rejected(parts):
    with pytest.raises(InvalidInput):
        Diagram(parts)


def test_diagram_121_columns():
    d = Diagram((1, 2, 1))
    assert d.columns == ((1,), (2, 3), (4,))


def test_single_column_diagram_has_no_nilradical():
    d = Diagram((1,))
    assert d.columns == ((1,),)
    assert d.dim_nilradical == 0
    assert not d.nilradical_positions()


def test_diagram_2112_columns():
    assert Diagram((2, 1, 1, 2)).columns == ((1, 2), (3,), (4,), (5, 6))


def test_diagram_fills_its_columns_down_and_left_to_right():
    # the fill that a separate builder made before the diagram filled its
    # own columns
    for n in range(1, 11):
        for parts in compositions_of(n):
            columns, next_entry = [], 1
            for part in parts:
                columns.append(tuple(range(next_entry, next_entry + part)))
                next_entry += part
            assert Diagram(parts).columns == tuple(columns), parts


def test_pairs_121():
    d = Diagram((1, 2, 1))
    assert neighbouring_pairs(d) == (NeighbouringPair(0, 2, 1),)


def test_pairs_all_heights_distinct():
    assert neighbouring_pairs(Diagram((3, 2, 1))) == ()


def test_pairs_2112():
    d = Diagram((2, 1, 1, 2))
    assert neighbouring_pairs(d) == (
        NeighbouringPair(1, 2, 1),
        NeighbouringPair(0, 3, 2),
    )


def test_boxes_below_band():
    d = Diagram((1, 2, 1))
    assert boxes_below_band(d, NeighbouringPair(0, 2, 1)) == 1
    d = Diagram((2, 2))
    assert boxes_below_band(d, NeighbouringPair(0, 1, 2)) == 0
    d = Diagram((2, 1, 1, 2))
    assert boxes_below_band(d, NeighbouringPair(0, 3, 2)) == 0


def test_true_degree():
    assert true_degree(Diagram((1, 2, 1)), NeighbouringPair(0, 2, 1)) == 2
    assert true_degree(Diagram((2, 1, 1, 2)), NeighbouringPair(1, 2, 1)) == 1
    assert true_degree(Diagram((2, 2)), NeighbouringPair(0, 1, 2)) == 2


def test_rectangle_and_surrounding():
    d = Diagram((2, 1, 1, 2))
    pair = NeighbouringPair(0, 3, 2)
    assert surrounding_pair(d, 2, 1) == pair
    assert surrounding_pair(d, 2, 3) is None
    assert surrounding_pair(d, 1, 1) == NeighbouringPair(1, 2, 1)


def _scan_surrounding_pair(d, height, adjacent_left):
    # the linear scan the pair table replaced
    for pair in neighbouring_pairs(d):
        if pair.height == height and pair.left <= adjacent_left and pair.right >= adjacent_left + 1:
            return pair
    return None


def test_surrounding_pair_matches_linear_scan():
    found = missing = 0
    for n in range(1, 9):
        for parts in compositions_of(n):
            d = Diagram(parts)
            for height in range(1, max(parts) + 2):
                for adjacent_left in range(len(parts) - 1):
                    expected = _scan_surrounding_pair(d, height, adjacent_left)
                    assert surrounding_pair(d, height, adjacent_left) == expected, (parts, height, adjacent_left)
                    found += expected is not None
                    missing += expected is None
    assert found and missing


def test_matrix_model_membership():
    d = Diagram((1, 2, 1))
    assert d.in_nilradical((1, 2))
    assert not d.in_nilradical((2, 3))  # same Levi block
    assert d.dim_nilradical == len(d.nilradical_positions()) == 5


def test_in_nilradical_is_false_out_of_range_and_agrees_with_the_positions():
    # every position of 1..n, and a border of positions outside it
    for n in range(1, 8):
        for parts in compositions_of(n):
            d = Diagram(parts)
            square = {(i, j) for i in range(-1, n + 3) for j in range(-1, n + 3)}
            assert {pos for pos in square if d.in_nilradical(pos)} == d.nilradical_positions(), parts


def test_diagram_json():
    d = Diagram((2, 1))
    assert d.to_json() == {"parts": [2, 1], "n": 3, "columns": [[1, 2], [3]]}


@given(compositions)
@settings(max_examples=60, deadline=None)
def test_dimension_matches_position_count(parts):
    d = Diagram(parts)
    assert d.dim_nilradical == len(d.nilradical_positions())
    pairs = {(i, j) for i in range(1, d.n + 1) for j in range(1, d.n + 1)}
    assert d.nilradical_positions() == {pos for pos in pairs if d.in_nilradical(pos)}


@given(compositions)
@settings(max_examples=60, deadline=None)
def test_degree_identity(parts):
    # degree + band boxes + height = number of boxes between the pair
    d = Diagram(parts)
    for pair in neighbouring_pairs(d):
        boxes = sum(d.height(c) for c in range(pair.left, pair.right + 1))
        assert true_degree(d, pair) + boxes_below_band(d, pair) + pair.height == boxes


@given(compositions)
@settings(max_examples=60, deadline=None)
def test_pair_count_per_height(parts):
    d = Diagram(parts)
    pairs = neighbouring_pairs(d)
    for height in set(parts):
        columns = sum(1 for p in parts if p == height)
        assert sum(1 for p in pairs if p.height == height) == columns - 1
