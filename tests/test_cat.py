"""Categories, 2-categories, nerves, and the two inverse constructions."""

import math

import pytest

from hornfill.cat import (
    Finite2Category,
    FiniteCategory,
    _duskin_table,
    categories_isomorphic,
    duskin_nerve,
    enumerate_functors,
    fundamental_category,
    homotopy_category,
    mapping_space,
    nerve,
    one_object_two_group,
    split_two_group,
    two_category_from_category,
    walking_invertible_two_cell,
    walking_two_cell,
)
from hornfill.corpus import (
    all_categories,
    all_two_categories,
    bg_category,
    pair_groupoid_category,
    poset_category,
)
from hornfill.config import DEFAULT_BUDGET
from hornfill.errors import CapacityError, InputError, ValidationError
from hornfill.groupoid import cyclic_group, symmetric_group
from hornfill.sset import (
    SimplexRef,
    SimplicialSet,
    is_isomorphic,
    standard_simplex,
    subcomplex_of_simplex,
)

from frozen_callables import duskin_callables, in_order_of, simplicial_object


def test_category_validation_rejects_partial_composition():
    with pytest.raises(ValidationError):
        FiniteCategory(
            ("a",),
            {"1": ("a", "a"), "z": ("a", "a")},
            {"a": "1"},
            {
                ("1", "1"): "1",
                ("1", "z"): "z",
                ("z", "1"): "z",
                # ("z", "z") missing: composition must be total
            },
        )


def test_category_validation_rejects_broken_identity():
    with pytest.raises(ValidationError):
        FiniteCategory(
            ("a",),
            {"1": ("a", "a"), "z": ("a", "a")},
            {"a": "1"},
            {
                ("1", "1"): "1",
                ("1", "z"): "1",  # 1 . z must be z
                ("z", "1"): "z",
                ("z", "z"): "1",
            },
        )


def test_category_axioms_hold_across_corpus():
    for name, c in all_categories().items():
        c.validate()
        assert len(c.objects) <= 4 and len(c.mor) <= 12, name


def test_corpus_has_enough_groupoids_and_non_groupoids():
    cats = all_categories()
    assert len(cats) >= 20
    groupoids = [n for n, c in cats.items() if c.is_groupoid()]
    assert len(groupoids) >= 3
    assert len(cats) - len(groupoids) >= 3


def test_nerve_of_one_object_group_counts_powers():
    c = bg_category(cyclic_group(2))
    x = nerve(c, dim_cap=4).sset
    for n in range(5):
        assert x.count(n) == 2**n


def test_nerve_of_linear_poset_is_standard_simplex():
    res = nerve(poset_category(2), dim_cap=3)
    assert is_isomorphic(res.sset, standard_simplex(2, dim_cap=3)) is not None


def test_nerve_faces_compose_adjacent_morphisms():
    c = bg_category(symmetric_group(3))
    res = nerve(c, dim_cap=3)
    fs = ("120", "201")  # a 2-string; inner face composes it
    ref = res.model.ref_of[(2, fs)]
    inner = res.sset.face(ref, 1)
    assert inner == res.model.ref_of[(1, (c.compose(fs[1], fs[0]),))]
    assert res.sset.face(ref, 2) == res.model.ref_of[(1, (fs[0],))]
    assert res.sset.face(ref, 0) == res.model.ref_of[(1, (fs[1],))]


def _name_clashes():
    """Two valid categories whose nerve names clash: an object and a
    morphism both called f, and a morphism x|y = y . x named like the
    composable string (x, y)."""
    af = FiniteCategory(
        ("a", "f"),
        {"1a": ("a", "a"), "1f": ("f", "f"), "f": ("a", "f")},
        {"a": "1a", "f": "1f"},
        {("1a", "1a"): "1a", ("1f", "1f"): "1f", ("f", "1a"): "f", ("1f", "f"): "f"},
    )
    units = {f"1{v}": (v, v) for v in "abc"}
    xy = FiniteCategory(
        ("a", "b", "c"),
        {**units, "x": ("a", "b"), "y": ("b", "c"), "x|y": ("a", "c")},
        {v: f"1{v}" for v in "abc"},
        {
            **{(u, u): u for u in units},
            ("x", "1a"): "x", ("1b", "x"): "x", ("y", "1b"): "y", ("1c", "y"): "y",
            ("x|y", "1a"): "x|y", ("1c", "x|y"): "x|y", ("y", "x"): "x|y",
        },
    )
    return af, xy


def test_nerve_name_clashes_are_input_errors():
    af, xy = _name_clashes()
    with pytest.raises(InputError) as info:
        nerve(af)
    assert str(info.value) == (
        "level namer collision at 'f': 'f' at level 0 and ('f',) at level 1"
    )
    with pytest.raises(InputError) as info:
        duskin_nerve(two_category_from_category(af))
    assert str(info.value) == "level namer collision at 'f': 'f' at level 0 and 'f' at level 1"
    with pytest.raises(InputError) as info:
        nerve(xy)
    assert str(info.value) == (
        "level namer collision at 'x|y': ('x|y',) at level 1 and ('x', 'y') at level 2"
    )


def test_enumerate_functors_counts():
    bc2 = bg_category(cyclic_group(2))
    assert len(enumerate_functors(bc2, bc2)) == 2
    # poset arrows map to order pairs
    assert len(enumerate_functors(poset_category(1), poset_category(2))) == 6


def test_categories_isomorphic_positive_and_negative():
    bc2 = bg_category(cyclic_group(2))
    relabeled = FiniteCategory(
        ("x",),
        {"m_id": ("x", "x"), "m_sw": ("x", "x")},
        {"x": "m_id"},
        {
            ("m_id", "m_id"): "m_id",
            ("m_id", "m_sw"): "m_sw",
            ("m_sw", "m_id"): "m_sw",
            ("m_sw", "m_sw"): "m_id",
        },
    )
    assert categories_isomorphic(bc2, relabeled) is not None
    assert categories_isomorphic(poset_category(1), bc2) is None
    # same object and morphism counts, different composition tables
    bc4 = bg_category(cyclic_group(4))
    from hornfill.groupoid import direct_product
    bv4 = bg_category(direct_product(cyclic_group(2), cyclic_group(2)))
    assert categories_isomorphic(bc4, bv4) is None


def _opposite(c):
    return FiniteCategory(
        c.objects,
        {m: (t, s) for m, (s, t) in c.mor.items()},
        c.identity,
        {(f, g): h for (g, f), h in c.compose_table.items()},
        check=False,
    )


def test_opposite_is_an_involution():
    for name, c in all_categories().items():
        op2 = _opposite(_opposite(c))
        assert op2.compose_table == c.compose_table, name
        assert categories_isomorphic(op2, c) is not None


def test_two_category_validation_catches_bad_vertical_units():
    c2 = one_object_two_group(cyclic_group(2))
    c2.validate()
    with pytest.raises(ValidationError, match="^vertical: left unit fails at 'ac1'$"):
        Finite2Category(
            c2.objects, c2.one, c2.cat.identity, c2.cat.compose_table, c2.two,
            c2.two_identity, {**c2.vcompose, ("ac0", "ac1"): "ac0"}, c2.hcompose,
        )
    w = walking_two_cell()
    w.validate()
    assert not w.all_two_invertible()
    assert walking_invertible_two_cell().all_two_invertible()


def test_duskin_counts_for_one_object_two_groups():
    for order in (2, 3):
        a = cyclic_group(order)
        x = duskin_nerve(one_object_two_group(a), dim_cap=4).sset
        for n in range(5):
            assert x.count(n) == order ** math.comb(n, 2)


def test_duskin_counts_for_split_two_group():
    x = duskin_nerve(split_two_group(cyclic_group(2), cyclic_group(2)), dim_cap=3).sset
    assert [x.count(n) for n in range(4)] == [1, 2, 8, 64]


def test_duskin_nerves_at_cap_5_have_the_closed_form_counts():
    two_cats = all_two_categories()
    for name, counts in (
        ("two_group_c3", [3 ** math.comb(n, 2) for n in range(6)]),
        ("split_c2_c2", [1, 2, 8, 64, 1024, 32768]),
    ):
        x = duskin_nerve(two_cats[name], dim_cap=5).sset
        assert [x.count(n) for n in range(6)] == counts, name
        assert [len(x.simplices(n)) for n in range(6)] == counts, name
        x.table().validate()


def test_duskin_of_discrete_two_category_is_the_nerve():
    for c in (poset_category(1), bg_category(cyclic_group(2))):
        a = duskin_nerve(two_category_from_category(c), dim_cap=3).sset
        b = nerve(c, dim_cap=3).sset
        assert is_isomorphic(a, b) is not None


def test_fundamental_category_of_nerve_recovers_the_category():
    for name in ("poset2", "bs3", "pair2", "retraction"):
        c = all_categories()[name]
        res = nerve(c, dim_cap=2)
        tau = fundamental_category(res.sset)
        assert categories_isomorphic(tau.category, c) is not None, name


def test_fundamental_category_of_inner_horn_is_free_on_the_path():
    horn = subcomplex_of_simplex(2, "horn", k=1, dim_cap=2)
    tau = fundamental_category(horn)
    # free category on p -> q -> r: three identities plus pq, qr, and qr.pq
    assert len(tau.category.objects) == 3
    assert len(tau.category.mor) == 6


def test_homotopy_category_of_nerve_recovers_the_category():
    for name in ("poset2", "bs3", "pair2"):
        c = all_categories()[name]
        res = nerve(c, dim_cap=2)
        h = homotopy_category(res.sset)
        assert categories_isomorphic(h.category, c) is not None, name


def test_homotopy_category_needs_inner_fillers():
    horn = subcomplex_of_simplex(2, "horn", k=1, dim_cap=2)
    with pytest.raises(InputError):
        homotopy_category(horn)


def test_homotopy_classes_collapse_duskin_two_cells():
    c2 = split_two_group(cyclic_group(2), cyclic_group(3))
    x = duskin_nerve(c2, dim_cap=2).sset
    h = homotopy_category(x)
    # 1-cells up to invertible 2-cells: the group C2
    assert categories_isomorphic(h.category, bg_category(cyclic_group(2))) is not None


def test_mapping_space_levels_count_cylinders():
    y = nerve(bg_category(cyclic_group(2)), dim_cap=2).sset
    d1 = standard_simplex(1, dim_cap=2)
    m = mapping_space(d1, y, dim_cap=1)
    # maps Delta^1 -> N(BC2) are its edges; cylinders over Delta^1 its squares
    assert len(m.levels[0]) == y.count(1)
    assert len(m.levels[1]) == 8  # commuting squares in BC2: 2^3 labelings

    pinned = mapping_space(d1, y, dim_cap=1, pin=None)
    assert len(pinned.levels[0]) == len(m.levels[0])


def test_mapping_space_rejects_a_target_capped_below_the_source():
    y = nerve(bg_category(cyclic_group(2)), dim_cap=1).sset
    with pytest.raises(InputError, match="dim_cap 1 .* dim_cap 2"):
        mapping_space(standard_simplex(1, dim_cap=2), y, dim_cap=1)
    # equal caps are fine
    assert len(mapping_space(standard_simplex(1, dim_cap=1), y, dim_cap=1).levels[0]) == 2


def test_pair_groupoid_nerve_counts():
    c = pair_groupoid_category(3)
    x = nerve(c, dim_cap=3).sset
    for n in range(4):
        assert x.count(n) == 3 ** (n + 1)


def test_search_capacity_errors_report_partial_progress():
    bs3 = all_categories()["bs3"]
    # the budget counts map-search trials on the nerves; trial 41 completes
    # the first functor
    for budget, found in ((40, 0), (41, 1)):
        with pytest.raises(CapacityError) as info:
            enumerate_functors(bs3, bs3, budget=budget)
        assert info.value.partial == found
    c2 = one_object_two_group(cyclic_group(2))
    # level 2 spends two trials, one per triangle; the boundary join for
    # level 3 completes its first tetrahedron at trial 6
    for budget, found in ((5, 0), (6, 1)):
        with pytest.raises(CapacityError) as info:
            duskin_nerve(c2, dim_cap=3, budget=budget)
        assert info.value.partial == found
    loops = SimplicialSet(
        1, {0: ["v"], 1: ["a", "b"]},
        {"a": (SimplexRef("v"), SimplexRef("v")), "b": (SimplexRef("v"), SimplexRef("v"))},
    )
    # the longest word length whose universe was built
    with pytest.raises(CapacityError) as info:
        fundamental_category(loops, path_budget=1)
    assert info.value.partial == 0
    with pytest.raises(CapacityError) as info:
        fundamental_category(loops, path_budget=100)
    assert info.value.partial == 5  # 1 + 2 + 4 + ... + 32 = 63 words, 127 > 100
    with pytest.raises(CapacityError) as info:
        fundamental_category(loops, max_length=3)
    assert info.value.partial == 4


# -- Duskin levels against the per-element index maps the recipes replaced -----


def test_duskin_tables_match_the_per_element_reindex():
    cases = [(c2, 4) for c2 in all_two_categories().values()]
    # both have non-degenerate 5-simplices (768 and 538)
    cases += [(one_object_two_group(cyclic_group(2)), 5), (walking_invertible_two_cell(), 5)]
    for c2, cap in cases:
        oracle = simplicial_object(cap, *duskin_callables(c2, cap)[:3], check=False)
        # the join's own rows, in level order, and the model's, renumbered
        table, values = _duskin_table(c2, cap, DEFAULT_BUDGET)
        assert [list(level) for level in values] == [list(level) for level in oracle.levels], c2
        assert (table.faces, table.degs) == (oracle.faces, oracle.degs), c2
        model = duskin_nerve(c2, dim_cap=cap).model
        assert (model.levels, model.faces, model.degs) == in_order_of(model, oracle), c2
    assert len(model.sset.generators(5)) == 538
