"""Horn classification and edge invertibility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornfill import io
from hornfill.cat import FiniteCategory, duskin_nerve, nerve
from hornfill.cli import main
from hornfill.corpus import all_categories, all_two_categories, bg_category, monoid_category
from hornfill.errors import CapacityError, InputError
from hornfill.groupoid import cyclic_group, symmetric_group
from hornfill.kan import (
    classify,
    horn_fillers,
    horn_generators,
    horn_maps,
    horn_tuples,
    is_isomorphism_edge,
)
from hornfill.sset import (
    SimplexRef,
    enumerate_maps,
    product,
    standard_simplex,
    subcomplex_of_simplex,
)


def test_horn_generators_come_in_dimension_order():
    horn, gen_ids = horn_generators(3, 1)
    dims = [horn.gen_dim[g] for g in gen_ids]
    assert dims == sorted(dims)
    assert len(gen_ids) == 4 + 6 + 3  # vertices, edges, all but one triangle


# frozen census: maps of 2-horns into the nerve of the 2-chain poset
# and which of them extend.  Outer 2-horns admit exactly 4 unfillable maps
# each (pick the non-composable pair), the inner one is always fillable.
POSET2_HORN_TABLE = {
    (2, 0): (14, 4),
    (2, 1): (10, 0),
    (2, 2): (14, 4),
    (3, 0): (15, 0),
    (3, 1): (15, 0),
    (3, 2): (15, 0),
    (3, 3): (15, 0),
}


def test_poset2_nerve_horn_census_is_frozen():
    x = nerve(all_categories()["poset2"], dim_cap=3).sset
    rep = classify(x, 3)
    for (n, k), (total, unfilled) in POSET2_HORN_TABLE.items():
        v = rep.verdict(n, k)
        assert v.horn_count == total, (n, k)
        assert v.unfilled == unfilled, (n, k)
        assert v.ambiguous == 0, (n, k)
    assert rep.weak_kan and not rep.kan
    assert rep.nerve_of_category and not rep.nerve_of_groupoid


def test_bs3_nerve_horn_census_is_frozen():
    x = nerve(bg_category(symmetric_group(3)), dim_cap=3).sset
    rep = classify(x, 3)
    for n, count in ((2, 36), (3, 216)):
        for k in range(n + 1):
            v = rep.verdict(n, k)
            assert v.horn_count == count
            assert v.all_fill and v.all_unique
    assert rep.nerve_of_groupoid


def test_classification_flags_across_corpus_nerves():
    for name, c in all_categories().items():
        rep = classify(nerve(c, dim_cap=3).sset, 3)
        assert rep.weak_kan and rep.nerve_of_category, name
        assert rep.kan == c.is_groupoid(), name
        assert rep.nerve_of_groupoid == c.is_groupoid(), name


def test_standard_interval_is_weak_kan_but_outer_horns_fail():
    # Delta^1 = nerve of the 1-chain: inner horns fill, outer ones do not
    x = standard_simplex(1, dim_cap=2)
    rep = classify(x, 2)
    assert rep.weak_kan and not rep.kan
    for k in (0, 2):
        v = rep.verdict(2, k)
        assert v.unfilled == 1 and v.no_filler_example


def test_duskin_two_group_is_kan_with_ambiguous_fillers():
    x = duskin_nerve(all_two_categories()["two_group_c2"], dim_cap=3).sset
    rep = classify(x, 3)
    assert rep.kan and rep.weak_kan
    assert not rep.nerve_of_category
    v = rep.verdict(2, 1)
    assert v.horn_count == 1 and v.all_fill and not v.all_unique
    assert v.multi_filler_example is not None


def test_duskin_walking_cell_fails_weak_kan_at_inner_3_horns():
    x = duskin_nerve(all_two_categories()["walking_cell"], dim_cap=3).sset
    rep = classify(x, 3)
    assert not rep.weak_kan
    bad = {(v.n, v.k) for v in rep.verdicts if 0 < v.k < v.n and v.unfilled}
    assert bad == {(3, 1), (3, 2)}


def test_duskin_walking_invertible_cell_is_weak_kan_not_kan():
    x = duskin_nerve(all_two_categories()["walking_invertible_cell"], dim_cap=3).sset
    rep = classify(x, 3)
    assert rep.weak_kan and not rep.kan


def test_inner_uniqueness_iff_no_composite_has_two_outgoing_cells():
    # fillers of an inner 2-horn are the 2-cells out of the composite,
    # so uniqueness fails exactly when some composite has more than one
    for name, c2 in all_two_categories().items():
        if not c2.all_two_invertible():
            continue
        rep = classify(duskin_nerve(c2, dim_cap=3).sset, 3)
        multi = any(
            sum(
                len(c2.two_hom(c2.cat.compose_table[(g, f)], c))
                for c in c2.cat.hom(c2.cat.src(f), c2.cat.tgt(g))
            )
            > 1
            for f in c2.one
            for g in c2.one
            if c2.cat.tgt(f) == c2.cat.src(g)
        )
        inner_unique = all(v.all_unique for v in rep.verdicts if 0 < v.k < v.n)
        assert inner_unique == (not multi), name


def test_inner_two_horn_fillers_match_the_two_cell_census():
    for name, c2 in all_two_categories().items():
        if not c2.all_two_invertible():
            continue
        dusk = duskin_nerve(c2, dim_cap=2)

        def one_cell(ref):
            if ref.degs:
                return c2.cat.identity[dusk.model.elem_of_gen[ref.gen]]
            return dusk.model.elem_of_gen[ref.gen]

        for m in horn_maps(dusk.sset, 2, 1):
            f = one_cell(m.assignment["01"])
            g = one_cell(m.assignment["12"])
            comp = c2.cat.compose_table[(g, f)]
            expected = sum(
                len(c2.two_hom(comp, c))
                for c in c2.cat.hom(c2.cat.src(f), c2.cat.tgt(g))
            )
            assert len(horn_fillers(dusk.sset, 2, 1, m)) == expected, name


def test_horn_fillers_of_nerve_are_the_composable_strings():
    c = bg_category(cyclic_group(3))
    res = nerve(c, dim_cap=2)
    maps = horn_maps(res.sset, 2, 1)
    assert len(maps) == 9
    for m in maps:
        fillers = horn_fillers(res.sset, 2, 1, m)
        assert len(fillers) == 1


def test_is_isomorphism_edge_agrees_with_the_category():
    for name in ("poset2", "bc3", "retraction", "pair2", "bs3"):
        c = all_categories()[name]
        res = nerve(c, dim_cap=2)
        for f in c.morphism_ids():
            edge = res.ref_of_string((f,))
            rep = is_isomorphism_edge(res.sset, edge)
            assert rep.is_isomorphism == (c.inverse(f) is not None), (name, f)
            assert rep.inverse_in_homotopy_category == rep.is_isomorphism


def test_is_isomorphism_edge_inverse_witness_composes_to_identity():
    c = bg_category(symmetric_group(3))
    res = nerve(c, dim_cap=2)
    for f in c.morphism_ids():
        rep = is_isomorphism_edge(res.sset, res.ref_of_string((f,)))
        assert rep.is_isomorphism
        g = rep.inverse_witness
        assert g is not None


def test_is_isomorphism_edge_rejects_non_edges():
    x = nerve(all_categories()["poset1"], dim_cap=2).sset
    with pytest.raises(InputError):
        is_isomorphism_edge(x, SimplexRef("nope"))


def test_classify_respects_dimension_cap_argument():
    x = nerve(all_categories()["poset1"], dim_cap=3).sset
    rep = classify(x, 2)
    assert rep.inspected_cap == 2
    assert {(v.n, v.k) for v in rep.verdicts} == {(2, 0), (2, 1), (2, 2)}
    # requests beyond the truncation clamp to what the data supports
    assert classify(x, 5).inspected_cap == 3
    with pytest.raises(InputError):
        classify(nerve(all_categories()["poset1"], dim_cap=1).sset)


def test_report_json_shape():
    x = nerve(all_categories()["poset1"], dim_cap=2).sset
    rep = classify(x, 2)
    data = rep.to_json()
    assert data["weak_kan"] is True
    assert len(data["verdicts"]) == 3
    assert {"n", "k", "horns"} <= set(data["verdicts"][0])


# -- the generic map search, kept as the oracle of the face-tuple route ------


def _oracle_horn_maps(x, n, k):
    horn, _ = horn_generators(n, k)
    return enumerate_maps(horn, x)


def _restriction_key(x, top, gen_ids):
    return tuple(x.restrict(top, tuple(int(c) for c in g)) for g in gen_ids)


def _oracle_filler_index(x, n, k):
    """n-simplices of x by their restrictions to the horn's generators."""
    _, gen_ids = horn_generators(n, k)
    index = {}
    for top in x.simplices(n):
        index.setdefault(_restriction_key(x, top, gen_ids), []).append(top)
    return index


def _oracle_fillers(index, n, k, horn_map):
    _, gen_ids = horn_generators(n, k)
    return tuple(index.get(tuple(horn_map.assignment[g] for g in gen_ids), ()))


def _oracle_census(x, cap):
    """classify(x, cap).to_json() from the generic map search."""
    verdicts = []
    for n in range(2, cap + 1):
        for k in range(n + 1):
            index = _oracle_filler_index(x, n, k)
            maps = _oracle_horn_maps(x, n, k)
            unfilled = ambiguous = 0
            no_ex = multi_ex = None
            for m in maps:
                fillers = _oracle_fillers(index, n, k, m)
                shown = {g: str(ref) for g, ref in sorted(m.assignment.items())}
                if not fillers:
                    unfilled += 1
                    no_ex = no_ex or shown
                elif len(fillers) > 1:
                    ambiguous += 1
                    multi_ex = multi_ex or dict(shown, fillers=[str(t) for t in fillers])
            verdicts.append({
                "n": n,
                "k": k,
                "horns": len(maps),
                "all_fill": unfilled == 0,
                "all_unique": unfilled == 0 and ambiguous == 0,
                "unfilled": unfilled,
                "ambiguous": ambiguous,
                "no_filler_example": no_ex,
                "multi_filler_example": multi_ex,
            })
    inner = [v for v in verdicts if 0 < v["k"] < v["n"]]
    return {
        "inspected_cap": cap,
        "verdicts": verdicts,
        "weak_kan": all(v["all_fill"] for v in inner),
        "kan": all(v["all_fill"] for v in verdicts),
        "nerve_of_category": all(v["all_unique"] for v in inner),
        "nerve_of_groupoid": all(v["all_unique"] for v in verdicts),
    }


def _poset_nerve(n_points, pairs, cap):
    """Nerve of the order generated by the pairs (i, j), i < j."""
    leq = {(i, i) for i in range(n_points)} | set(pairs)
    for _ in range(n_points):
        leq |= {(i, h) for (i, j) in leq for (j2, h) in leq if j == j2}
    mors = {f"{i}<{j}": (str(i), str(j)) for i, j in leq}
    comp = {
        (f"{j}<{h}", f"{i}<{j}"): f"{i}<{h}"
        for (i, j) in leq for (j2, h) in leq if j == j2
    }
    ident = {str(i): f"{i}<{i}" for i in range(n_points)}
    c = FiniteCategory(tuple(str(i) for i in range(n_points)), mors, ident, comp)
    return nerve(c, dim_cap=cap).sset


def _monoid_nerve(gens, cap):
    """Nerve of the monoid of self-maps of a finite set generated by gens."""
    unit = tuple(range(len(gens[0])))
    elems = {unit}
    frontier = [unit]
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = tuple(g[v] for v in f)
            if h not in elems:
                elems.add(h)
                frontier.append(h)
    name = lambda f: "m" + "".join(map(str, f))
    mul = {(name(a), name(b)): name(tuple(a[v] for v in b)) for a in elems for b in elems}
    c = monoid_category(sorted(map(name, elems)), mul, name(unit))
    return nerve(c, dim_cap=cap).sset


@st.composite
def _small_sset(draw, cap):
    kind = draw(st.sampled_from(("simplex", "boundary", "horn")))
    n = draw(st.integers(0 if kind == "simplex" else 1, 3))
    if kind == "simplex":
        return standard_simplex(n, dim_cap=max(n, cap))
    k = draw(st.integers(0, n)) if kind == "horn" else None
    return subcomplex_of_simplex(n, kind, k=k, dim_cap=cap)


@st.composite
def _random_target(draw):
    cap = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("shape", "product", "poset", "monoid")))
    if kind == "shape":
        return draw(_small_sset(cap)), cap
    if kind == "product":
        # products of two 2- or 3-dimensional shapes grow fast; cap them at 2
        return product(draw(_small_sset(2)), draw(_small_sset(2)), dim_cap=2), 2
    if kind == "poset":
        n_points = draw(st.integers(2, 4))
        below = [(i, j) for i in range(n_points) for j in range(i + 1, n_points)]
        return _poset_nerve(n_points, draw(st.sets(st.sampled_from(below))), cap), cap
    # at most four elements: two self-maps of two points, or one of three
    size = draw(st.integers(2, 3))
    self_map = st.tuples(*[st.integers(0, size - 1)] * size)
    gens = draw(st.lists(self_map, min_size=1, max_size=4 - size))
    return _monoid_nerve(gens, cap), cap


@settings(max_examples=60, deadline=None)
@given(_random_target())
def test_face_tuple_route_matches_the_generic_map_search(target):
    x, cap = target
    for n in range(1, cap + 1):
        for k in range(n + 1):
            maps = horn_maps(x, n, k)
            oracle = _oracle_horn_maps(x, n, k)
            # equal assignments (and skeleta) in the same order
            assert maps == oracle, (n, k)
            assert len(horn_tuples(x, n, k)) == len(oracle)
            index = _oracle_filler_index(x, n, k)
            for m in oracle:
                assert horn_fillers(x, n, k, m) == _oracle_fillers(index, n, k, m)
    assert classify(x, cap).to_json() == _oracle_census(x, cap)


def test_corpus_censuses_match_the_generic_map_search():
    targets = [
        nerve(c, dim_cap=3).sset for c in all_categories().values()
    ] + [
        duskin_nerve(c2, dim_cap=3).sset for c2 in all_two_categories().values()
    ]
    for x in targets:
        assert classify(x, 3).to_json() == _oracle_census(x, 3), repr(x)


def test_horn_generators_and_filler_indexes_are_cached():
    assert horn_generators(3, 1) is horn_generators(3, 1)
    x = nerve(all_categories()["poset2"], dim_cap=3).sset
    assert x.filler_index(3, 1) is x.filler_index(3, 1)


def test_horn_tuples_reject_bad_shapes():
    x = nerve(all_categories()["poset1"], dim_cap=2).sset
    for n, k in ((3, 1), (0, 0), (2, 3), (2, -1)):
        with pytest.raises(InputError):
            horn_tuples(x, n, k)


def _bs3_nerve():
    return nerve(bg_category(symmetric_group(3)), dim_cap=3).sset


def test_one_budget_covers_the_whole_census():
    x = _bs3_nerve()
    with pytest.raises(CapacityError) as info:
        classify(x, 3, budget=1)
    assert info.value.partial == 0
    # the least budget that completes the census; one trial fewer runs out in
    # the last of the seven horn shapes, after six have been completed
    lo, hi = 1, 10_000
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            classify(x, 3, budget=mid)
            hi = mid
        except CapacityError:
            lo = mid + 1
    assert lo > sum(len(horn_tuples(x, n, k)) for n in (2, 3) for k in range(n + 1))
    with pytest.raises(CapacityError) as info:
        classify(x, 3, budget=lo - 1)
    assert info.value.partial == 6
    with pytest.raises(CapacityError) as info:
        horn_maps(x, 3, 1, budget=1)
    assert info.value.partial == 0


def test_check_kan_out_of_budget_exits_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "bs3.json"
    path.write_text(io.dumps(io.sset_to_json(_bs3_nerve())))
    assert main(["sset", "check-kan", str(path), "--budget", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: horn census exceeded budget 1")
    assert "Traceback" not in captured.err
