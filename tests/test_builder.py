import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilfibre import builder
from nilfibre.builder import ONE, ComponentTableau, Move, component_tableaux, extend_all
from nilfibre.conformance import compositions_of
from nilfibre.core import ConstructionViolation, Diagram, NeighbouringPair, neighbouring_pairs
from nilfibre.roots import excluded_roots

from tableau_helpers import by_stars

compositions = st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple)


def labelled(ct, label):
    return {(i, j) for l, i, j in ct.lines() if l == label}


def trail(ct, entry):
    """The boxes (column, row) of the limit tableau that hold ``entry``, left
    to right."""
    return tuple((c, r) for c, col in enumerate(ct.columns) for r, e in enumerate(col, start=1) if e == entry)


@pytest.mark.parametrize(
    "parts, count",
    [
        ((1, 2, 1, 2), 2),
        ((2, 1, 1, 2, 1), 3),
        ((3, 2, 1, 1, 1, 2, 3), 6),
        ((2, 1, 1, 1, 2), 3),
        ((3, 2, 1), 1),
        ((2, 1, 1, 2), 2),
        ((2, 1, 2, 1, 2, 1), 5),
        ((1,), 1),
        ((4,), 1),
        ((1, 1, 1), 1),
        ((2, 1, 2, 1), 2),
    ],
)
def test_enumeration_counts(parts, count):
    assert len(extend_all(Diagram(parts))) == count


def test_tableau_totals_per_n():
    totals = [sum(len(extend_all(Diagram(parts))) for parts in compositions_of(n)) for n in range(1, 13)]
    assert totals == [1, 2, 4, 8, 16, 36, 76, 165, 370, 839, 1923, 4493]


def counted_families(max_n):
    """Every member of n <= max_n of the periodic families whose tableau
    counts were seen to grow by a short recurrence, with that count.  The
    families are all such observed so far: (2,1)^k and (1,2)^k give the odd
    Fibonacci numbers F(2k-1); (2,1)^k,2 and (1,2)^k,1 the even ones F(2k);
    (1,2,1)^k, (2,1,1)^k and (2,2,1)^k satisfy a_k = 4a_(k-1) - a_(k-2) from
    (1, 4), (1, 3) and (1, 3); (2,1^m,2) gives max(1, m).  These are
    observations, not theorems: the paper states no formula.  Nothing else
    checks enumeration independently past the n = 12 totals, so the bound
    is as far as a run can afford (n <= 18 in about 0.1 s for the tests,
    n <= 27 in CI); a member that stops matching is a finding, not a
    reason to shorten the range."""
    fib = [0, 1]
    while len(fib) <= 2 * max_n:
        fib.append(fib[-1] + fib[-2])

    def four_minus(a1, a2):
        seq = [a1, a2]
        while len(seq) < max_n:
            seq.append(4 * seq[-1] - seq[-2])
        return seq

    families = [
        ((2, 1), (), fib[1::2]),
        ((1, 2), (), fib[1::2]),
        ((2, 1), (2,), fib[2::2]),
        ((1, 2), (1,), fib[2::2]),
        ((1, 2, 1), (), four_minus(1, 4)),
        ((2, 1, 1), (), four_minus(1, 3)),
        ((2, 2, 1), (), four_minus(1, 3)),
    ]
    for period, tail, counts in families:
        k = 1
        while sum(parts := period * k + tail) <= max_n:
            yield parts, counts[k - 1]
            k += 1
    for m in range(max_n - 3):
        yield (2,) + (1,) * m + (2,), max(1, m)


def test_periodic_family_counts():
    members = list(counted_families(18))
    assert len(members) == 48
    wrong = [(parts, count, found) for parts, count in members if (found := len(extend_all(Diagram(parts)))) != count]
    assert not wrong


def test_pruned_search_matches_unpruned(monkeypatch):
    # With no pair forced, the search clones every branch, stranding ones
    # included, and runs the free-pair guard at each of their nodes.
    diagrams = [Diagram(parts) for n in range(1, 12) for parts in compositions_of(n)]
    pruned = [extend_all(diagram) for diagram in diagrams]
    subsets = builder._subsets
    monkeypatch.setattr(builder, "_subsets", lambda moves, forced: subsets(moves, set()))
    assert [extend_all(diagram) for diagram in diagrams] == pruned


def test_search_skips_stranding_branches(monkeypatch):
    # every visited node lists its candidates once; the unpruned search
    # visits 15,062 nodes here
    calls = 0
    candidates = builder._candidates

    def counted(*args):
        nonlocal calls
        calls += 1
        return candidates(*args)

    monkeypatch.setattr(builder, "_candidates", counted)
    for parts in compositions_of(10):
        extend_all(Diagram(parts))
    assert calls == 3191


def test_canonical_tableau_121():
    (ct,) = component_tableaux(Diagram((1, 2, 1)))
    assert ct.v_support == {(2, 4)}
    assert ct.e_support == {(1, 2), (3, 4)}
    assert ct.lines() == [("*", 2, 4), ("1", 1, 2), ("1", 3, 4)]


def test_1212_upper_tableau_ones():
    # the tableau lowering 2 twice carries stars 2->4, 2->6 and
    # ones 1->2, 3->4, 4->5
    ct = by_stars((1, 2, 1, 2), {(2, 4), (2, 6)})
    assert labelled(ct, ONE) == {(1, 2), (3, 4), (4, 5)}


def test_1212_lower_tableau_ones():
    ct = by_stars((1, 2, 1, 2), {(2, 4), (3, 4)})
    assert labelled(ct, ONE) == {(1, 2), (4, 5), (2, 6)}


def test_11_one_star_and_no_ones():
    # (1,1) has one neighbouring pair, hence one star and no ones
    (ct,) = component_tableaux(Diagram((1, 1)))
    assert ct.v_support == {(1, 2)}
    assert ct.e_support == set()


def test_21121_bottom_move_descends_two_rows():
    # the tableau lowering 4 two rows below 6 carries stars 4->5 and 4->6
    ct = by_stars((2, 1, 1, 2, 1), {(3, 4), (4, 5), (4, 6)})
    move = next(m for m in ct.moves if m.entry == 4)
    assert len(move.pairs) == 2
    assert move.star_targets == (5, 6)


def test_21121_star_sets():
    got = {frozenset(ct.v_support) for ct in component_tableaux(Diagram((2, 1, 1, 2, 1)))}
    assert got == {
        frozenset({(3, 4), (5, 7), (2, 4)}),
        frozenset({(3, 4), (5, 7), (3, 6)}),
        frozenset({(3, 4), (4, 5), (4, 6)}),
    }


def test_component_tableau_2112_canonical():
    # the 3-chooser lowers 3 twice, one row at a time
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    assert ct.e_support == {(1, 3), (2, 4), (4, 5)}
    assert [m.entry for m in ct.moves] == [3, 3]


def test_component_tableau_identity_for_trivial():
    (ct,) = component_tableaux(Diagram((3, 2, 1)))
    assert ct.v_support == set()
    assert ct.e_support == {(1, 4), (2, 5), (4, 6)}


def test_strings_1212():
    ct = by_stars((1, 2, 1, 2), {(2, 4), (2, 6)})
    assert trail(ct, 2) == ((1, 1), (2, 2), (3, 3))
    assert trail(ct, 1) == ((0, 1),)


def test_strings_21121_two_row_descent():
    ct = by_stars((2, 1, 1, 2, 1), {(3, 4), (4, 5), (4, 6)})
    boxes = trail(ct, 4)
    assert boxes[0] == (2, 1)
    assert (3, 3) in boxes  # dropped two rows in one step


def test_choice_json_schema():
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    records = ct.choice_json()
    assert records == [
        {"t": 1, "pairLeft": 2, "pairRight": 3, "entry": 3, "rowsDown": 1},
        {"t": 2, "pairLeft": 1, "pairRight": 4, "entry": 3, "rowsDown": 1},
    ]


@given(compositions)
@settings(max_examples=40, deadline=None)
def test_star_count_equals_pair_count(parts):
    for ct in component_tableaux(Diagram(parts)):
        assert len(ct.v_support) == len(neighbouring_pairs(ct.diagram))


@given(compositions)
@settings(max_examples=40, deadline=None)
def test_every_pair_used_exactly_once(parts):
    for ct in component_tableaux(Diagram(parts)):
        used = [p for m in ct.moves for p in m.pairs]
        assert sorted(map(str, used)) == sorted(map(str, neighbouring_pairs(ct.diagram)))
        assert len(set(used)) == len(used)
        # each entry's moves are listed in strictly increasing target column,
        # as ComponentTableau builds their trails
        for entry in {m.entry for m in ct.moves}:
            targets = [m.target_col for m in ct.moves if m.entry == entry]
            assert targets == sorted(set(targets))


@given(compositions)
@settings(max_examples=40, deadline=None)
def test_non_crossing_strings(parts):
    # strings sharing two columns keep their vertical order in both
    for ct in component_tableaux(Diagram(parts)):
        occ = {e: dict(trail(ct, e)) for e in range(1, ct.diagram.n + 1)}
        entries = list(occ)
        for a in range(len(entries)):
            for b in range(a + 1, len(entries)):
                e1, e2 = entries[a], entries[b]
                shared = set(occ[e1]) & set(occ[e2])
                orders = {occ[e1][c] < occ[e2][c] for c in shared}
                assert len(orders) <= 1, (parts, e1, e2)


@given(compositions)
@settings(max_examples=40, deadline=None)
def test_starting_places(parts):
    # if one string runs below another in a shared column it started weakly left
    for ct in component_tableaux(Diagram(parts)):
        occ = {e: dict(trail(ct, e)) for e in range(1, ct.diagram.n + 1)}
        for e1 in occ:
            for e2 in occ:
                if e1 == e2:
                    continue
                shared = set(occ[e1]) & set(occ[e2])
                if shared and all(occ[e2][c] > occ[e1][c] for c in shared):
                    assert ct.diagram.column_of(e2) <= ct.diagram.column_of(e1)


@given(compositions)
@settings(max_examples=40, deadline=None)
def test_one_lines_injective(parts):
    # no two ones share a row or a column: the one-matrix is a partial
    # permutation, as tangent_dimension assumes
    for ct in component_tableaux(Diagram(parts)):
        rows = [i for i, _ in ct.e_support]
        cols = [j for _, j in ct.e_support]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)


@given(compositions)
@settings(max_examples=40, deadline=None)
def test_distinct_data_distinct_tableaux(parts):
    tableaux = component_tableaux(Diagram(parts))
    seen = set()
    for ct in tableaux:
        key = ct.pair_entry
        assert key not in seen
        seen.add(key)
    labels = {(frozenset(ct.e_support), frozenset(ct.v_support)) for ct in tableaux}
    assert len(labels) == len(tableaux)


@given(compositions)
@settings(max_examples=40, deadline=None)
def test_extended_column_entries_distinct(parts):
    for ct in component_tableaux(Diagram(parts)):
        for col in ct.columns:
            assert len(set(col)) == len(col)


def test_each_entry_holds_a_run_of_columns_from_its_own():
    # entries only move into the right-hand neighbouring column, so the
    # columns holding an entry are consecutive and start at its original
    # column; the search and the tableau take an entry's copy in column c as
    # its last exactly when column c + 1 does not hold it
    checked = 0
    for n in range(1, 10):
        for parts in compositions_of(n):
            diagram = Diagram(parts)
            for columns, _ in extend_all(diagram):
                for entry in range(1, n + 1):
                    held = [c for c, col in enumerate(columns) if entry in col]
                    assert held == list(range(diagram.column_of(entry), held[-1] + 1)), (parts, columns, entry)
                checked += 1
    assert checked == 678


def test_free_pair_always_has_choice():
    # observation honoured on every composition up to n = 6; every
    # enumeration raises if a free pair has no move at its own stage
    for n in range(1, 7):
        for parts in compositions_of(n):
            component_tableaux(Diagram(parts))


def with_star_targets(columns, moves, entry, targets):
    (move,) = moves
    return columns, (replace(move, entry=entry, star_targets=targets),)


@pytest.mark.parametrize(
    "faulty, match",
    [
        pytest.param(lambda cols, moves: with_star_targets(cols, moves, 2, (2,)), "not in the nilradical", id="diagonal-star"),
        pytest.param(lambda cols, moves: with_star_targets(cols, moves, 1, (2,)), "carries both labels", id="star-on-the-one-1-2"),
        pytest.param(lambda cols, moves: with_star_targets(cols, moves, 2, ()), "star count", id="no-star"),
        # unextended, 2 and 3 both stop in the middle column, and the last
        # column has one entry
        pytest.param(lambda cols, moves: (((1,), (2, 3), (4,)), ()), "no endpoint left", id="unextended"),
        # 2 twice in the last column; every other check passes on it
        pytest.param(lambda cols, moves: (cols[:-1] + (cols[-1] + (2,),), moves), "repeats within a column", id="repeated-entry"),
    ],
)
def test_component_tableau_rejects_a_faulty_limit_tableau(faulty, match):
    diagram = Diagram((1, 2, 1))
    ((columns, moves),) = extend_all(diagram)
    with pytest.raises(ConstructionViolation, match=match):
        ComponentTableau(diagram, *faulty(columns, moves))


def derived_separately(diagram, columns, moves):
    """The reference route: the supports and each pair's consuming entry in
    ``neighbouring_pairs`` order, derived by a pass of their own over the
    limit tableau and its moves, the stars from the moves and the ones from
    each entry's last copy."""
    stars = frozenset((move.entry, j) for move in moves for j in move.star_targets)
    ones = set()
    for c in range(diagram.k - 1):
        stopped = [entry for entry in columns[c] if entry not in columns[c + 1]]
        ones |= set(zip(stopped, diagram.columns[c + 1]))
    consumed = {pair: move.entry for move in moves for pair in move.pairs}
    pairs = neighbouring_pairs(diagram)
    assert consumed.keys() == set(pairs)
    return frozenset(ones), stars, tuple(consumed[pair] for pair in pairs)


def test_constructor_derives_what_a_separate_pass_did():
    checked = 0
    for n in range(1, 10):
        for parts in compositions_of(n):
            diagram = Diagram(parts)
            for columns, moves in extend_all(diagram):
                ct = ComponentTableau(diagram, columns, moves)
                assert (ct.e_support, ct.v_support, ct.pair_entry) == derived_separately(diagram, columns, moves), (parts, moves)
                checked += 1
    assert checked == 678


def scanned_trail(ct, pair):
    """The consuming entry's moves up to the first one whose stage reaches
    the pair's height, and the row below that stage."""
    entry = ct.pair_entry[neighbouring_pairs(ct.diagram).index(pair)]
    steps = []
    for move in ct.moves:
        if move.entry == entry:
            steps.append(move)
            if move.stage >= pair.height:
                return tuple(steps), move.stage + 1
    raise AssertionError(f"trail of {entry} never penetrates below row {pair.height}")


def test_trails_match_a_scan_of_the_moves():
    checked = 0
    for n in range(1, 10):
        for parts in compositions_of(n):
            for ct in component_tableaux(Diagram(parts)):
                for pair in neighbouring_pairs(ct.diagram):
                    trail = ct.trail(pair)
                    assert (trail, trail[-1].stage + 1) == scanned_trail(ct, pair), (parts, pair)
                    checked += 1
    assert checked == 1719


def forged(parts, name, **changes):
    """A tableau of ``parts`` rebuilt with the move that consumed the named
    pair changed."""
    ct = component_tableaux(Diagram(parts))[0]
    (pair,) = [p for p in neighbouring_pairs(ct.diagram) if str(p) == name]
    moves = tuple(replace(m, **changes) if pair in m.pairs else m for m in ct.moves)
    return lambda: ComponentTableau(ct.diagram, ct.columns, moves)


def forged_unconsumed():
    d = Diagram((2, 1, 1, 2))
    ct = component_tableaux(d)[1]
    return ComponentTableau(d, ct.columns, (Move(1, 3, 2, (NeighbouringPair(1, 2, 1),), (4, 6)),))


@pytest.mark.parametrize(
    "build, match",
    [
        # pair (C2,C3; s=1) of (2,1,1,2) consumed by entry 1, which starts in C1
        pytest.param(forged((2, 1, 1, 2), "(C2,C3;s=1)", entry=1), r"trail of 1 does not start inside the rectangle of \(C2,C3;s=1\)", id="outside-the-rectangle"),
        # the one move of (1,2,1) entering C1 instead of C2
        pytest.param(forged((1, 2, 1), "(C1,C3;s=1)", target_col=0), r"lands outside \]C,C'\] of \(C1,C3;s=1\)", id="landing-outside"),
        # the limit columns of (2,1,1,2)'s second tableau with only the move
        # of 3 into C3: its two supports are the real ones, but the height-2
        # pair is left free
        pytest.param(forged_unconsumed, r"pair \(C1,C4;s=2\) is never consumed", id="never-consumed"),
    ],
)
def test_tableau_rejects_a_forged_trail(build, match):
    with pytest.raises(ConstructionViolation, match=match):
        build()


def test_free_pair_without_a_move_raises(monkeypatch):
    monkeypatch.setattr(builder, "_candidates", lambda *args: [])
    with pytest.raises(ConstructionViolation, match="no admissible choice"):
        extend_all(Diagram((1, 1)))


def test_tableaux_are_released_by_their_caller():
    # Nothing in the engine retains a tableau once the caller drops it.  A
    # cache keeps the first of equal keys, so the composition is one that no
    # other test enumerates.
    ct = component_tableaux(Diagram((4, 1, 1, 4)))[0]
    excluded_roots(ct)
    ref = weakref.ref(ct)
    del ct
    gc.collect()
    assert ref() is None
