"""Categories, 2-categories, nerves, and the two inverse constructions."""

import math

import pytest

from hornfill.cat import (
    Finite2Category,
    FiniteCategory,
    _cells_in_order,
    _tetra_holds,
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
    SimplicialObject,
    SimplicialSet,
    is_isomorphic,
    standard_simplex,
    subcomplex_of_simplex,
)


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
    ref = res.ref_of_string(fs)
    inner = res.sset.face(ref, 1)
    assert inner == res.ref_of_string((c.compose(fs[1], fs[0]),))
    assert res.sset.face(ref, 2) == res.ref_of_string((fs[0],))
    assert res.sset.face(ref, 0) == res.ref_of_string((fs[1],))


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


def test_opposite_is_an_involution():
    for name, c in all_categories().items():
        op2 = c.opposite().opposite()
        assert op2.compose_table == c.compose_table, name
        assert categories_isomorphic(c.opposite().opposite(), c) is not None


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
        x.validate(deep=True)


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


# the per-cell level search and the packing the boundary join replaced


def _enumerate_duskin_level(c2, n, budget):
    """All n-simplices (n >= 2): vertex tuples, edge and triangle labelings
    satisfying every tetrahedron condition.  A CapacityError carries the
    number of n-simplices found as partial."""
    order = _cells_in_order(n)
    out = []
    nodes = 0
    verts = {}
    edges = {}
    tris = {}

    def tetra_ready_checks(t):
        # quads whose lexicographically last triangle is t = (j, k, l)
        j, k, l = t
        return [(i, j, k, l) for i in range(j)]

    def spend():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapacityError(f"2-nerve enumeration exceeded budget {budget}", partial=len(out))

    def rec(pos):
        if pos == len(order):
            e = tuple(edges[p] for p in sorted(edges))
            t = tuple(tris[p] for p in sorted(tris))
            out.append((tuple(verts[i] for i in range(n + 1)), e, t))
            return
        cell = order[pos]
        if len(cell) == 2:
            i, j = cell
            cands = c2.cat.hom(verts[i], verts[j])
            for f in cands:
                spend()
                edges[cell] = f
                rec(pos + 1)
                del edges[cell]
        else:
            i, j, k = cell
            composite = c2.cat.compose_table[(edges[(j, k)], edges[(i, j)])]
            for m in c2.two_hom(composite, edges[(i, k)]):
                spend()
                tris[cell] = m
                if all(
                    _tetra_holds(c2, edges, tris, q) for q in tetra_ready_checks(cell)
                ):
                    rec(pos + 1)
                del tris[cell]

    def rec_verts(i):
        if i == n + 1:
            rec(0)
            return
        for x in c2.objects:
            verts[i] = x
            rec_verts(i + 1)
            del verts[i]

    rec_verts(0)
    return out


def _duskin_pack(n, elem):
    """Down-convert the uniform (verts, edges, tris) shape to the level type."""
    verts, e, t = elem
    if n == 0:
        return verts[0]
    if n == 1:
        return e[0]
    return (e, t)


def _oracle_npts(edge_tuple):
    # len(e) == C(m+1, 2) determines the number of vertices m + 1
    m = 1
    while m * (m + 1) // 2 < len(edge_tuple):
        m += 1
    return m + 1


def _oracle_duskin_unpack(c2, n, x):
    if n == 0:
        return ((x,), (), ())
    if n == 1:
        s, t = c2.one[x]
        return ((s, t), (x,), ())
    e, t = x
    verts = [c2.one[e[0]][0]]
    pos = {p: idx for idx, p in enumerate(sorted(
        (i, j) for j in range(_oracle_npts(e)) for i in range(j)))}
    for i in range(_oracle_npts(e) - 1):
        verts.append(c2.one[e[pos[(i, i + 1)]]][1])
    return (tuple(verts), e, t)


def _oracle_duskin_reindex(c2, n_from, elem, alpha):
    """Relabel an n_from-simplex along alpha, rebuilding the index maps."""
    verts, e, t = elem
    n_to = len(alpha) - 1
    epos = {p: idx for idx, p in enumerate(sorted(
        (i, j) for j in range(n_from + 1) for i in range(j)))}
    tpos = {p: idx for idx, p in enumerate(sorted(
        (i, j, k) for k in range(n_from + 1) for j in range(k) for i in range(j)))}

    def edge_at(i, j):
        a, b = alpha[i], alpha[j]
        if a == b:
            return c2.cat.identity[verts[a]]
        return e[epos[(a, b)]]

    def tri_at(i, j, k):
        a, b, c = alpha[i], alpha[j], alpha[k]
        if a == b == c:
            return c2.two_identity[c2.cat.identity[verts[a]]]
        if a == b:
            return c2.two_identity[e[epos[(b, c)]]]
        if b == c:
            return c2.two_identity[e[epos[(a, b)]]]
        return t[tpos[(a, b, c)]]

    new_verts = tuple(verts[alpha[i]] for i in range(n_to + 1))
    new_e = tuple(
        edge_at(i, j)
        for (i, j) in sorted((i, j) for j in range(n_to + 1) for i in range(j))
    )
    new_t = tuple(
        tri_at(i, j, k)
        for (i, j, k) in sorted(
            (i, j, k) for k in range(n_to + 1) for j in range(k) for i in range(j)
        )
    )
    return new_verts, new_e, new_t


def _oracle_duskin_object(c2, dim_cap):
    levels = [list(c2.objects), sorted(c2.one)] + [
        [_duskin_pack(n, x) for x in _enumerate_duskin_level(c2, n, DEFAULT_BUDGET)]
        for n in range(2, dim_cap + 1)
    ]

    def face(n, i, x):
        full = _oracle_duskin_unpack(c2, n, x)
        alpha = tuple(v for v in range(n + 1) if v != i)
        return _duskin_pack(n - 1, _oracle_duskin_reindex(c2, n, full, alpha))

    def deg(n, i, x):
        full = _oracle_duskin_unpack(c2, n, x)
        alpha = tuple(range(i + 1)) + tuple(range(i, n + 1))
        return _duskin_pack(n + 1, _oracle_duskin_reindex(c2, n, full, alpha))

    return SimplicialObject(dim_cap, levels, face, deg, check=False)


def test_duskin_tables_match_the_per_element_reindex():
    cases = [(c2, 4) for c2 in all_two_categories().values()]
    # both have non-degenerate 5-simplices (768 and 538)
    cases += [(one_object_two_group(cyclic_group(2)), 5), (walking_invertible_two_cell(), 5)]
    for c2, cap in cases:
        model = duskin_nerve(c2, dim_cap=cap).model
        oracle = _oracle_duskin_object(c2, cap)
        assert model.levels == oracle.levels, c2
        assert model.faces == oracle.faces, c2
        assert model.degs == oracle.degs, c2
    assert len(model.sset.generators(5)) == 538
