import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilfibre import roots as roots_module
from nilfibre.builder import component_tableaux
from nilfibre.conformance import compositions_of, verify_composition
from nilfibre.core import (
    ConstructionViolation,
    Diagram,
    InvalidInput,
    neighbouring_pairs,
)
from nilfibre.roots import (
    bracket_closure_violations,
    excluded_from_word,
    excluded_roots,
    hatted_tableau,
    left_contribution_preserved,
    levi_lowering_violations,
    shifted_tableau,
    special_star_line,
    trail_exclusions,
    word_form,
)

compositions = st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple)


def by_stars(parts, stars):
    matches = [ct for ct in component_tableaux(Diagram(parts)) if ct.v_support == frozenset(stars)]
    assert len(matches) == 1
    return matches[0]


def pair_of(parts, height, index=0):
    d = Diagram(parts)
    return [p for p in neighbouring_pairs(d) if p.height == height][index]


def test_word_form_base_tableaux():
    assert word_form(Diagram((1, 2, 1)).columns) == (1, 3, 2, 4)
    assert word_form(Diagram((2, 1, 1, 2)).columns) == (2, 1, 3, 4, 6, 5)


def test_word_form_rejects_duplicates():
    with pytest.raises(InvalidInput):
        word_form(((1, 2), (2,)))


def test_word_form_shifted_2112():
    d = Diagram((2, 1, 1, 2))
    assert word_form(shifted_tableau(d, 3, (4,))[0]) == (2, 1, 4, 3, 6, 5)
    assert word_form(shifted_tableau(d, 3, (6,))[0]) == (2, 1, 6, 3, 4, 5)


def test_excluded_from_word_2112():
    d = Diagram((2, 1, 1, 2))
    assert excluded_from_word((2, 1, 4, 3, 6, 5), d) == {(3, 4)}
    assert excluded_from_word((2, 1, 6, 3, 4, 5), d) == {(3, 6), (4, 6)}


def test_excluded_from_identity_word():
    d = Diagram((2, 1, 1, 2))
    assert excluded_from_word(tuple(range(1, 7)), d) == frozenset()


def test_shifted_tableau_122132():
    # generator (8, {11}) of (1,2,2,1,3,2): 11 below 8, 9 pushed under 6
    d = Diagram((1, 2, 2, 1, 3, 2))
    columns, displaced = shifted_tableau(d, 8, (11,))
    assert columns == ((1,), (2, 3), (4, 5, 9), (6,), (7, 8, 11), (10,))
    assert displaced == (9,)
    excl = excluded_from_word(word_form(columns), d)
    secondary = {p for p in excl if p[1] == 9}
    primary = {p for p in excl if p[1] == 11}
    assert secondary == {(4, 9), (5, 9), (6, 9)}
    assert primary == {(7, 11), (8, 11)}
    assert excl == secondary | primary


def test_shifted_tableau_lowest_entry_no_secondary():
    # 3 is the unique lowest entry of its column in (2,1,1,2)
    d = Diagram((2, 1, 1, 2))
    _, displaced = shifted_tableau(d, 3, (4,))
    assert displaced == ()


def test_shifted_secondary_1212():
    # (1,2,1,2), generator (2,{4}) adds the secondary exclusion (1,3)
    d = Diagram((1, 2, 1, 2))
    columns, _ = shifted_tableau(d, 2, (4,))
    excl = excluded_from_word(word_form(columns), d)
    assert (1, 3) in excl
    gens = excluded_roots(by_stars((1, 2, 1, 2), {(2, 4), (3, 4)}))
    by_entry = {(g.move.entry, g.move.star_targets): g for g in gens.by_generator}
    assert by_entry[(2, (4,))].secondary == {(1, 3)}


def test_excluded_roots_2112_canonical():
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    assert excluded_roots(ct).excluded == {(3, 4), (3, 6), (4, 6)}


def test_excluded_roots_empty_without_pairs():
    (ct,) = component_tableaux(Diagram((3, 2, 1)))
    roots = excluded_roots(ct)
    assert roots.excluded == frozenset()
    assert roots.u_support == ct.diagram.nilradical_positions()


def test_star_in_excluded_one_not(small_compositions):
    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            roots = excluded_roots(ct)
            assert ct.v_support <= roots.excluded, parts
            assert not (ct.e_support & roots.excluded), parts


def test_support_is_bracket_closed(small_compositions):
    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            roots = excluded_roots(ct)
            assert not bracket_closure_violations(roots.u_support), parts


def test_support_levi_lowering_stable(small_compositions):
    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            roots = excluded_roots(ct)
            assert not levi_lowering_violations(ct.diagram, roots.u_support), parts


def test_penetration_2121():
    # one component lowers 4 below 6 (lands one row down), the other drops 3
    # two rows below 5
    pair = pair_of((2, 1, 2, 1), 1)
    shallow = by_stars((2, 1, 2, 1), {(4, 6), (2, 5)})
    deep = by_stars((2, 1, 2, 1), {(3, 4), (3, 5)})
    last1 = shallow.trail(pair)[-1]
    last2 = deep.trail(pair)[-1]
    assert (last1.entry, last1.stage + 1) == (4, 2)
    assert (last2.entry, last2.stage + 1) == (3, 3)


def test_penetration_212121():
    pair = pair_of((2, 1, 2, 1, 2, 1), 1)  # (C2, C4)
    for ct in component_tableaux(Diagram((2, 1, 2, 1, 2, 1))):
        last = ct.trail(pair)[-1]
        if last.entry == 4:
            assert last.stage + 1 == 2
        if last.entry == 3:
            assert last.stage + 1 == 3


def test_penetration_halting_excludes_later_steps():
    # (3,2,1,3,2,1): the 5-trail record must not carry (7,11), which comes
    # from lowering 10 below 12
    parts = (3, 2, 1, 3, 2, 1)
    pair = pair_of(parts, 2)
    ct = next(t for t in component_tableaux(Diagram(parts)) if t.pair_entry()[pair] == 5)
    roots = excluded_roots(ct)
    specific = trail_exclusions(roots, ct.trail(pair))
    assert specific == {(4, 8), (4, 9), (5, 8), (5, 9), (6, 8), (6, 9)}
    assert (7, 11) in roots.excluded
    assert (7, 11) not in specific


def test_trail_exclusions_match_rederived_steps():
    # the per-move exclusions of the tableau, read for a trail's steps, equal
    # the exclusions derived afresh from those steps
    for parts in (p for n in range(1, 10) for p in compositions_of(n)):
        for ct in component_tableaux(Diagram(parts)):
            roots = excluded_roots(ct)
            for pair in neighbouring_pairs(ct.diagram):
                trail = ct.trail(pair)
                rederived = frozenset(
                    p
                    for m in trail
                    for p in roots_module._generator_exclusions(ct.diagram, m).all
                )
                assert trail_exclusions(roots, trail) == rederived, (parts, pair)


def test_exclusions_derived_once_per_move(monkeypatch):
    parts = (2, 1, 2, 1, 2, 1)
    moves = sum(len(ct.moves) for ct in component_tableaux(Diagram(parts)))
    original = roots_module._generator_exclusions
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(roots_module, "_generator_exclusions", counted)
    report = verify_composition(Diagram(parts))
    assert report["pass"]
    assert len(calls) == moves


def test_specific_set_within_global(small_compositions):
    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            roots = excluded_roots(ct)
            for pair in neighbouring_pairs(ct.diagram):
                assert trail_exclusions(roots, ct.trail(pair)) <= roots.excluded


def test_hatted_13212():
    # (1,3,2,1,2): 5 below 7 then below 9 amalgamates to columns {1,3,4}, {2,6}
    ct = by_stars((1, 3, 2, 1, 2), {(5, 7), (5, 9)})
    pair = pair_of((1, 3, 2, 1, 2), 2)
    ht = hatted_tableau(ct, pair)
    assert ht.columns[0] == (1, 3, 4)
    assert ht.columns[1] == (2, 6)
    assert ht.stacked == (7, 9)
    assert left_contribution_preserved(ht)


def test_hatted_2112_stacking_order():
    # (2,1,1,2) canonical: 4 below 3, then 6 below 4
    ct = by_stars((2, 1, 1, 2), {(3, 4), (3, 6)})
    pair = pair_of((2, 1, 1, 2), 2)
    ht = hatted_tableau(ct, pair)
    assert ht.columns[1] == (3, 4, 6)
    assert excluded_from_word(ht.word(), ct.diagram) == {(3, 4), (3, 6), (4, 6)}


def test_hatted_exclusions_union_of_steps(small_compositions):
    # the amalgamated tableau carries exactly the union of the step exclusions
    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            roots = excluded_roots(ct)
            for pair in neighbouring_pairs(ct.diagram):
                specific = trail_exclusions(roots, ct.trail(pair))
                ht = hatted_tableau(ct, pair)
                assert excluded_from_word(ht.word(), ct.diagram) == specific, (parts, pair)


def test_virtual_degree_drop(small_compositions):
    # criterion: virtual degree is exactly one less than the true degree,
    # and the height ledger holds (checked inside the constructor)
    from nilfibre.core import true_degree

    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            for pair in neighbouring_pairs(ct.diagram):
                ht = hatted_tableau(ct, pair)
                assert ht.virtual_degree == true_degree(ct.diagram, pair) - 1
                assert left_contribution_preserved(ht)


def test_special_star_line_1212():
    upper = by_stars((1, 2, 1, 2), {(2, 4), (2, 6)})
    d = upper.diagram
    p1 = pair_of((1, 2, 1, 2), 1)
    p2 = pair_of((1, 2, 1, 2), 2)
    assert special_star_line(upper, p1) == (2, 4)
    assert special_star_line(upper, p2) == (2, 6)
    lower = by_stars((1, 2, 1, 2), {(2, 4), (3, 4)})
    assert special_star_line(lower, p2) == (3, 4)


def test_special_star_lines_distinct(small_compositions):
    for parts in small_compositions:
        for ct in component_tableaux(Diagram(parts)):
            lines = [special_star_line(ct, p) for p in neighbouring_pairs(ct.diagram)]
            assert len(set(lines)) == len(lines), parts
            assert set(lines) <= ct.v_support, parts


def test_21112_stars_in_one_row():
    # (2,1,1,1,2), middle choice: all three section coordinates are distinct
    # although two starred lines join boxes of the first row
    ct = by_stars((2, 1, 1, 1, 2), {(3, 4), (4, 5), (3, 5)})
    lines = [special_star_line(ct, p) for p in neighbouring_pairs(ct.diagram)]
    assert sorted(lines) == [(3, 4), (3, 5), (4, 5)]


def test_shifted_rejects_bad_jlist():
    d = Diagram((2, 1, 1, 2))
    with pytest.raises(ConstructionViolation):
        shifted_tableau(d, 3, (5,))  # 5 is not the bottom of its column


def position_table_exclusions(word: tuple[int, ...], diagram: Diagram) -> frozenset:
    """The scan ``excluded_from_word`` replaced, kept as its oracle: a table
    of word positions, then every smaller entry i of each entry j."""
    index = {entry: k for k, entry in enumerate(word)}
    out = set()
    for j, pos_j in index.items():
        col_j = diagram.column_of(j)
        for i in range(1, j):
            if index.get(i, -1) > pos_j and diagram.column_of(i) < col_j:
                out.add((i, j))
    return frozenset(out)


def tableau_words(diagram: Diagram):
    """The shifted word of every move and the hatted word of every pair,
    over every component tableau of ``diagram``."""
    for ct in component_tableaux(diagram):
        for m in ct.moves:
            yield word_form(shifted_tableau(diagram, m.entry, m.star_targets)[0])
        for pair in neighbouring_pairs(diagram):
            yield hatted_tableau(ct, pair).word()


def test_word_inversions_match_the_position_table_scan():
    count = 0
    for parts in (p for n in range(1, 10) for p in compositions_of(n)):
        d = Diagram(parts)
        for word in tableau_words(d):
            assert excluded_from_word(word, d) == position_table_exclusions(word, d), (parts, word)
            count += 1
    assert count == 3362


@st.composite
def diagram_words(draw):
    d = Diagram(draw(compositions))
    order = draw(st.permutations(range(1, d.n + 1)))
    return d, tuple(order[: draw(st.integers(0, d.n))])


@given(diagram_words())
@settings(max_examples=200, deadline=None)
def test_word_inversions_of_drawn_orderings(drawn):
    d, word = drawn
    assert excluded_from_word(word, d) == position_table_exclusions(word, d)


@given(compositions)
@settings(max_examples=30, deadline=None)
def test_excluded_sets_inside_nilradical(parts):
    d = Diagram(parts)
    for ct in component_tableaux(d):
        roots = excluded_roots(ct)
        assert roots.excluded <= d.nilradical_positions()
        for gen in roots.by_generator:
            assert gen.primary and all(p[1] in gen.move.star_targets for p in gen.primary)
            assert all(p[1] not in gen.move.star_targets for p in gen.secondary)
