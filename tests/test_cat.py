"""Categories, 2-categories, nerves, and the two inverse constructions."""

import math

import pytest

from hornfill import io
from hornfill.cat import (
    Finite2Category,
    FiniteCategory,
    Functor,
    NerveResult,
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
    all_small_groups,
    all_two_categories,
    bg_category,
    pair_groupoid_category,
    poset_category,
)
from hornfill.config import DEFAULT_BUDGET
from hornfill.errors import CapacityError, InputError, ValidationError
from hornfill.groupoid import FiniteGroup, cyclic_group, symmetric_group
from hornfill.sset import (
    LevelModel,
    SimplexRef,
    SimplicialObject,
    SimplicialSet,
    is_isomorphic,
    product,
    standard_simplex,
    subcomplex_of_simplex,
)

from frozen_callables import (
    duskin_callables,
    in_order_of,
    in_set_order,
    oracle_duskin_nerve,
    oracle_duskin_table,
    oracle_fundamental_category,
    simplicial_object,
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


def test_nerve_of_an_unchecked_category_names_a_missing_or_unknown_composite():
    # no category is built unchecked: the table whose nerve was refused is
    # refused when the category is built, with the message the nerve gave
    units = {("i", "i"): "i", ("i", "f"): "f", ("f", "i"): "f"}
    for compose, message in (
        (units, r"^composition table wrong at \('f', 'f'\): missing entry$"),
        ({**units, ("f", "f"): "g"}, r"^\('f', 'f'\) composes to unknown 'g'$"),
    ):
        with pytest.raises(ValidationError, match=message):
            FiniteCategory(("x",), {"i": ("x", "x"), "f": ("x", "x")}, {"x": "i"}, compose)


def test_nerve_of_an_unchecked_category_names_a_bad_endpoint_or_identity():
    units = {("i", "i"): "i"}
    for mor, identity, message in (
        ({"i": ("x", "x"), "f": ("x", "y")}, {"x": "i"},
         r"^morphism 'f' has endpoint outside objects$"),
        ({"i": ("x", "x")}, {}, r"^bad identity at 'x'$"),
        ({"i": ("x", "x")}, {"x": "j"}, r"^bad identity at 'x'$"),
    ):
        with pytest.raises(ValidationError, match=message):
            FiniteCategory(("x",), mor, identity, units)


def test_functor_validate_names_what_an_unchecked_category_lacks():
    # a category that lacks an identity, a composite or a morphism is
    # refused when it is built, so a functor never meets one
    two = {"i": ("x", "x"), "f": ("x", "x")}
    units = {("i", "i"): "i", ("i", "f"): "f", ("f", "i"): "f"}
    c = FiniteCategory(("x",), two, {"x": "i"}, {**units, ("f", "f"): "i"})
    for mor, identity, compose, message in (
        (two, {"x": "i"}, units, r"^composition table wrong at \('f', 'f'\): missing entry$"),
        ({"f": ("x", "x")}, {}, {("f", "f"): "f"}, r"^bad identity at 'x'$"),
        (two, {}, units, r"^bad identity at 'x'$"),
        (two, {"x": "i"}, {**units, ("f", "f"): "g"}, r"^\('f', 'f'\) composes to unknown 'g'$"),
        ({**two, "e": ("x", "y")}, {"x": "i"}, units,
         r"^morphism 'e' has endpoint outside objects$"),
    ):
        with pytest.raises(ValidationError, match=message):
            FiniteCategory(("x",), mor, identity, compose)
    # between categories that were built, the functor laws are what is left
    arrow = poset_category(1)
    for tgt, on_objects, on_morphisms, message in (
        (arrow, {"x": "0"}, {"i": "00", "f": "01"}, r"^image of 'f' has wrong endpoints$"),
        (c, {"x": "x"}, {"i": "f", "f": "i"}, r"^identity at 'x' not preserved$"),
    ):
        with pytest.raises(ValidationError, match=message):
            Functor(c, tgt, on_objects, on_morphisms).validate()
    Functor(c, c, {"x": "x"}, {"i": "i", "f": "f"}).validate()


def test_duskin_nerve_of_an_unchecked_two_category_is_a_validation_error():
    # no 2-category is built unchecked: the tables whose Duskin nerve was
    # refused are refused when the 2-category is built, with the same message
    good = one_object_two_group(cyclic_group(2))
    parts = [good.objects, good.one, good.cat.identity, good.cat.compose_table, good.two,
             good.two_identity, good.vcompose, good.hcompose]
    for at, table, message in (
        (2, {"*": "2"}, r"^bad identity at '\*'$"),
        (3, {}, r"^composition table wrong at \('1', '1'\): missing entry$"),
        (7, {**good.hcompose, ("ac1", "ac1"): "ac1"},
         r"^interchange fails at \('ac0','ac1'\) \* \('ac1','ac0'\)$"),
    ):
        with pytest.raises(ValidationError, match=message):
            Finite2Category(*parts[:at], table, *parts[at + 1:])
    assert duskin_nerve(Finite2Category(*parts), dim_cap=3).sset == duskin_nerve(good, 3).sset


def test_two_group_builders_check_an_unchecked_group():
    # a group is checked when it is built, so a missing product is a
    # ValidationError before any builder can read the table
    c3 = cyclic_group(3)
    mul = dict(c3.mul)
    del mul[("c1", "c2")]
    message = r"^group table: composition table wrong at \('c1', 'c2'\): missing entry$"
    for build in (lambda g: one_object_two_group(g), lambda g: split_two_group(g, c3),
                  lambda g: split_two_group(c3, g)):
        with pytest.raises(ValidationError, match=message):
            build(FiniteGroup(c3.elements, mul))
    # a group whose table is whole is built and used
    good = FiniteGroup(c3.elements, c3.mul)
    assert one_object_two_group(good).all_two_invertible()


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
    # the oracle route, a LevelModel of every composable string, names
    # the same clash the same way
    for c, cap in ((af, 4), (xy, 4), (af, 1), (xy, 2)):
        with pytest.raises(InputError) as info:
            nerve(c, dim_cap=cap)
        with pytest.raises(InputError) as oracle:
            NerveResult(SimplicialSet(cap, {}, {}), c).model
        assert str(info.value) == str(oracle.value)


def _nerve_sources():
    cats = dict(all_categories())
    cats.update({f"b{name}": bg_category(g) for name, g in all_small_groups().items()})
    return cats


def test_nerve_presents_the_level_model_it_replaced():
    # the chains with their faces, written down directly, present the set
    # the LevelModel strip reads off every composable string: the same
    # generators and faces, JSON bytes and level table, which is the
    # model's own rows read through its normal forms
    for name, c in _nerve_sources().items():
        for cap in range(6):
            res = nerve(c, dim_cap=cap)
            table = res.sset.table()
            model = res.model
            assert model.sset._level_table is None, (name, cap)
            assert res.sset == model.sset, (name, cap)
            assert io.dumps(io.sset_to_json(res.sset)) == io.dumps(io.sset_to_json(model.sset))
            own = model.sset.table()
            assert (table.levels, table.faces, table.degs) == (own.levels, own.faces, own.degs)
            assert (table.levels, table.faces, table.degs) == in_set_order(model), (name, cap)
            res.sset.validate()
            assert len(table.levels[cap]) == len(model.levels[cap])


def test_a_nerve_builds_no_level_model_unless_it_is_read(monkeypatch):
    built = []
    init = LevelModel.__init__

    def record(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LevelModel, "__init__", record)
    results = [nerve(c, dim_cap=4) for c in _nerve_sources().values()]
    results += [duskin_nerve(c2, dim_cap=4) for c2 in all_two_categories().values()]
    for res in results:
        res.sset.table()
    assert built == []
    for res in (results[0], results[-1]):
        model = res.model
        assert built[-1:] == [model] and res.model is model
    assert len(built) == 2


def test_nerve_checks_a_category_once(monkeypatch):
    calls = []
    validate = FiniteCategory.validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(FiniteCategory, "validate", counted)
    # a checked category and a group's one-object category were checked
    # when built; the nerve does not check them again
    c = poset_category(2)
    g = cyclic_group(3)
    calls.clear()
    nerve(c, dim_cap=3)
    nerve(g.one_object_category(), dim_cap=3)
    assert calls == []
    # a category is checked once, when it is built, and not by its nerve
    units = {("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z"}
    good = FiniteCategory(("a",), {"1": ("a", "a"), "z": ("a", "a")}, {"a": "1"},
                          {**units, ("z", "z"): "z"})
    nerve(good, dim_cap=2)
    nerve(good, dim_cap=3)
    assert calls == [good]
    for _ in range(2):
        with pytest.raises(ValidationError, match="^right unit fails at 'z'$"):
            FiniteCategory(("a",), {"1": ("a", "a"), "z": ("a", "a")}, {"a": "1"},
                           {**units, ("z", "z"): "z", ("z", "1"): "1"})
    with pytest.raises(ValidationError, match="missing entry"):
        FiniteCategory(("a",), {"1": ("a", "a"), "z": ("a", "a")}, {"a": "1"}, units)


def test_each_structure_is_checked_once_when_it_is_built(monkeypatch):
    # one law check per loaded category and group, three per 2-category (its
    # 1-cells, its vertical and its horizontal category), and none from the
    # nerves or the 2-group builders beyond the 2-categories they build
    loads = [
        (io.category_from_json, list(map(io.category_to_json, all_categories().values())), 1),
        (io.group_from_json, list(map(io.group_to_json, all_small_groups().values())), 1),
        (io.two_category_from_json,
         list(map(io.two_category_to_json, all_two_categories().values())), 3),
    ]
    calls = []
    validate = FiniteCategory.validate
    monkeypatch.setattr(FiniteCategory, "validate", lambda self: calls.append(self) or validate(self))
    loaded = []
    for load, files, per in loads:
        calls.clear()
        loaded.append([load(data) for data in files])
        assert len(calls) == per * len(files) > 0
    cats, groups, two_cats = loaded
    calls.clear()
    for c in cats:
        nerve(c, dim_cap=3)
    for g in groups:
        nerve(g.one_object_category(), dim_cap=3)
    for c2 in two_cats:
        duskin_nerve(c2, dim_cap=3)
    assert calls == []
    abelian = [g for g in groups if all(g.mul[(a, b)] == g.mul[(b, a)] for a, b in g.mul)]
    for a in abelian:
        one_object_two_group(a)
        split_two_group(groups[0], a)
    assert len(calls) == 3 * 2 * len(abelian) > 0


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


def _is_isomorphism(F):
    """The bijectivity test categories_isomorphic ran on every functor."""
    return (
        sorted(F.on_objects.values()) == list(F.tgt.objects)
        and len(set(F.on_morphisms.values())) == len(F.tgt.mor)
        and len(F.on_morphisms) == len(F.tgt.mor)
    )


def test_categories_isomorphic_agrees_with_a_bijective_functor():
    # the oracle is the search categories_isomorphic used to run: list
    # every functor and keep the first bijective one
    cats = all_categories()
    for a, c in cats.items():
        for b, d in cats.items():
            F = categories_isomorphic(c, d)
            want = any(map(_is_isomorphism, enumerate_functors(c, d)))
            assert (F is not None) == want, (a, b)
            if F is not None:
                F.validate()
                assert _is_isomorphism(F), (a, b)


def _opposite(c):
    return FiniteCategory(
        c.objects,
        {m: (t, s) for m, (s, t) in c.mor.items()},
        c.identity,
        {(f, g): h for (g, f), h in c.compose_table.items()},
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


def _path_category_or_partial(tau, x, **bounds):
    try:
        res = tau(x, **bounds)
    except CapacityError as exc:
        return "capacity", str(exc), exc.partial
    category = io.dumps(io.category_to_json(res.category))
    return category, res.object_of_vertex, res.morphism_of_edge, res.universe_length


def test_fundamental_category_matches_the_rule_scan_it_replaced():
    simplices = [standard_simplex(n) for n in range(5)]
    horns = [subcomplex_of_simplex(n, "horn", k=k) for n in range(1, 5) for k in range(n + 1)]
    sets = [nerve(c, dim_cap=4).sset for c in all_categories().values()]
    sets += [duskin_nerve(c2, dim_cap=3).sset for c2 in all_two_categories().values()]
    sets += simplices + horns
    sets += [product(x, standard_simplex(1)) for x in simplices[:3] + horns[:6]]
    sets.append(SimplicialSet(
        1, {0: ["v"], 1: ["a", "b"]},
        {"a": (SimplexRef("v"), SimplexRef("v")), "b": (SimplexRef("v"), SimplexRef("v"))},
    ))
    outcomes = set()
    for x in sets:
        for bounds in (
            {}, {"path_budget": 30}, {"max_length": 2},
            # the length bound is refused before any word is built
            {"max_length": 1}, {"max_length": 1, "path_budget": 1}, {"path_budget": 2},
        ):
            want = _path_category_or_partial(oracle_fundamental_category, x, **bounds)
            assert _path_category_or_partial(fundamental_category, x, **bounds) == want
            outcomes.add(want[0] == "capacity")
    assert outcomes == {True, False}


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
    # level 3 spends 14 on its first three slots, and its last slot's first
    # candidate, trial 17, is a tetrahedron
    for budget, found in ((16, 0), (17, 1)):
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
        # the join's own rows, in level order, and the model's, as given
        table, values = oracle_duskin_table(c2, cap, DEFAULT_BUDGET)
        assert [list(level) for level in values] == [list(level) for level in oracle.levels], c2
        assert (table.faces, table.degs) == (oracle.faces, oracle.degs), c2
        model = oracle_duskin_nerve(c2, dim_cap=cap).model
        assert (model.levels, model.faces, model.degs) == (oracle.levels, oracle.faces,
                                                             oracle.degs), c2
    assert len(model.sset.generators(5)) == 538


# -- the Duskin nerve against the sorted join table it replaced -----------------


def test_duskin_nerve_presents_the_set_of_the_oracle():
    # the generators and faces written down level by level present the set
    # that the oracle's LevelModel strips off its sorted join table; the
    # lazy model holds the oracle model's elements and rows, in the order of
    # the set's table, and its rows pass the checks it skips
    cases = [(c2, cap) for c2 in all_two_categories().values() for cap in range(5)]
    cases += [(one_object_two_group(cyclic_group(2)), 5), (walking_invertible_two_cell(), 5)]
    for c2, cap in cases:
        res, oracle = duskin_nerve(c2, dim_cap=cap), oracle_duskin_nerve(c2, dim_cap=cap)
        assert res.sset == oracle.sset, (c2, cap)
        res.sset.validate()
        model, want = res.model, oracle.model
        assert (model.elem_of_gen, model.ref_of) == (want.elem_of_gen, want.ref_of), (c2, cap)
        levels, faces, degs = in_order_of(model, want)
        assert (list(levels), faces[1:], degs) == (model.levels, model.faces[1:], model.degs)
        table = res.sset.table()
        assert (model.faces, model.degs) == (table.faces, table.degs)
        SimplicialObject(cap, model.levels, model.faces, model.degs, check=True)
    assert len(cases) == 7 * 5 + 2


def test_duskin_nerve_refuses_at_the_budgets_of_the_oracle():
    # the same trials are counted, so a budget refuses both or neither, with
    # one message; the join walks another order, so partial may differ
    budgets = list(range(61)) + [80, 100, 150, 200, 300, 500, 700, 1000, 1500, 2000, 3000,
                                 5000, 7000, 10_000, 15_000, 20_000]
    refused = 0
    for c2 in all_two_categories().values():
        for cap in (3, 4):
            for budget in budgets:
                outcomes = []
                for build in (duskin_nerve, oracle_duskin_nerve):
                    try:
                        outcomes.append(build(c2, dim_cap=cap, budget=budget).sset)
                    except CapacityError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (c2, cap, budget)
                refused += isinstance(outcomes[0], str)
    assert 0 < refused < 7 * 2 * len(budgets)
