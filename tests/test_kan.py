"""Horn classification and edge invertibility."""

import itertools

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
    _horn_charts,
    classify,
    filler_profile,
    horn_fillers,
    horn_generators,
    horn_maps,
    horn_tuples,
    is_isomorphism_edge,
)
from hornfill.sset import (
    SimplexRef,
    SimplicialMap,
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


def test_cap_5_nerve_census_keeps_the_cap_4_verdicts():
    # nerves are 2-coskeletal, so one cap higher changes no verdict: the
    # horns through dimension 4 and the four flags are those at cap 4, and
    # every 5-horn, which holds the whole 2-skeleton, has one filler
    for name, c in all_categories().items():
        low, high = (classify(nerve(c, dim_cap=cap).sset, cap).to_json() for cap in (4, 5))
        assert high["verdicts"][:len(low["verdicts"])] == low["verdicts"], name
        flags = ("weak_kan", "kan", "nerve_of_category", "nerve_of_groupoid")
        assert [high[flag] for flag in flags] == [low[flag] for flag in flags], name
        top = high["verdicts"][len(low["verdicts"]):]
        assert [v["n"] for v in top] == [5] * 6, name
        assert all(v["all_fill"] and v["all_unique"] for v in top), name


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
        for f in sorted(c.mor):
            edge = res.model.ref_of[(1, (f,))]
            rep = is_isomorphism_edge(res.sset, edge)
            assert rep.is_isomorphism == (c.inverse(f) is not None), (name, f)
            assert rep.inverse_in_homotopy_category == rep.is_isomorphism


def test_is_isomorphism_edge_inverse_witness_composes_to_identity():
    c = bg_category(symmetric_group(3))
    res = nerve(c, dim_cap=2)
    for f in sorted(c.mor):
        rep = is_isomorphism_edge(res.sset, res.model.ref_of[(1, (f,))])
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


# -- the SimplexRef route the level table replaced, kept as the oracle --------


class _RefRoute:
    """The horn census on SimplexRef values: an index keyed by faces from
    the normal-form calculus, and restriction by stripping faces."""

    def __init__(self, x):
        self.x = x
        self._indexes = {}
        self._restricted = {}

    def face_index(self, n, positions=None):
        positions = tuple(range(n + 1)) if positions is None else tuple(positions)
        key = (n, positions)
        if key not in self._indexes:
            index = {}
            for t in self.x.simplices(n):
                index.setdefault(tuple(self.x._face(t, i) for i in positions), []).append(t)
            self._indexes[key] = index
        return self._indexes[key]

    def filler_index(self, n, k):
        return self.face_index(n, tuple(i for i in range(n + 1) if i != k))

    def restrict(self, ref, alpha):
        key = (ref, tuple(alpha))
        if key not in self._restricted:
            self._restricted[key] = _strip_restrict(self.x, ref, alpha)
        return self._restricted[key]

    def join(self, n, k):
        faces = [i for i in range(n + 1) if i != k]
        indexes = [self.face_index(n - 1, faces[:s]) for s in range(len(faces))]
        out, chosen = [], []

        def extend(s):
            if s == len(faces):
                out.append(tuple(chosen))
                return
            key = tuple(self.x._face(y, faces[s] - 1) for y in chosen)
            for y in indexes[s].get(key, ()):
                chosen.append(y)
                extend(s + 1)
                chosen.pop()

        extend(0)
        return out

    def images(self, n, k, tup):
        return tuple(self.restrict(tup[slot], alpha) for slot, alpha in _horn_charts(n, k))

    def horn_maps(self, n, k):
        horn, gen_ids = horn_generators(n, k)
        return [
            SimplicialMap(horn, self.x, dict(zip(gen_ids, imgs)), up_to=n - 1, check=False)
            for imgs in sorted(self.images(n, k, t) for t in self.join(n, k))
        ]

    def horn_fillers(self, n, k, horn_map):
        key = tuple(
            horn_map.assignment["".join(str(v) for v in range(n + 1) if v != i)]
            for i in range(n + 1)
            if i != k
        )
        return tuple(self.filler_index(n, k).get(key, ()))

    def filler_profile(self, n, k):
        index = self.filler_index(n, k)
        profile = {}
        for t in self.join(n, k):
            count = len(index.get(t, ()))
            profile[count] = profile.get(count, 0) + 1
        return profile

    def classify(self, cap):
        verdicts = []
        for n in range(2, cap + 1):
            for k in range(n + 1):
                tuples = self.join(n, k)
                index = self.filler_index(n, k)
                unfilled = ambiguous = 0
                no_images = multi = None
                for t in tuples:
                    fillers = index.get(t, ())
                    if len(fillers) == 1:
                        continue
                    images = self.images(n, k, t)
                    if not fillers:
                        unfilled += 1
                        if no_images is None or images < no_images:
                            no_images = images
                    else:
                        ambiguous += 1
                        if multi is None or images < multi[0]:
                            multi = (images, fillers)
                _, gen_ids = horn_generators(n, k)
                shown = lambda images: {g: str(r) for g, r in sorted(zip(gen_ids, images))}
                verdicts.append({
                    "n": n,
                    "k": k,
                    "horns": len(tuples),
                    "all_fill": unfilled == 0,
                    "all_unique": unfilled == 0 and ambiguous == 0,
                    "unfilled": unfilled,
                    "ambiguous": ambiguous,
                    "no_filler_example": shown(no_images) if no_images else None,
                    "multi_filler_example": dict(
                        shown(multi[0]), fillers=[str(t) for t in multi[1]]
                    ) if multi else None,
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


def _strip_restrict(x, ref, alpha):
    """restrict by factoring alpha into codegeneracies and cofaces and
    stripping one face at a time."""
    a = list(alpha)
    s_stack = []
    while True:
        dup = next((i for i in range(len(a) - 1) if a[i] == a[i + 1]), None)
        if dup is None:
            break
        s_stack.append(dup)
        del a[dup + 1]
    cur = ref
    vals = a
    while len(vals) - 1 < x.dim_of(cur):
        present = set(vals)
        i = next(v for v in range(x.dim_of(cur) + 1) if v not in present)
        cur = x._face(cur, i)
        vals = [v - 1 if v > i else v for v in vals]
    for i in reversed(s_stack):
        cur = x.degeneracy(cur, i)
    return cur


def _assert_routes_agree(x, cap, horn_maps_up_to):
    """The position route and the SimplexRef route give the same census,
    face indexes, horn maps in order, fillers and filler profiles."""
    ref = _RefRoute(x)
    assert classify(x, cap).to_json() == ref.classify(cap), repr(x)
    for n in range(1, cap + 1):
        level, below = x.simplices(n), x.simplices(n - 1)
        positions = [None] + [tuple(i for i in range(n + 1) if i != k) for k in range(n + 1)]
        for pos in positions:
            got = {
                tuple(below[p] for p in key): [level[p] for p in ps]
                for key, ps in x.table(n).face_index(n, pos).items()
            }
            assert list(got.items()) == list(ref.face_index(n, pos).items()), (n, pos)
        for k in range(n + 1):
            assert filler_profile(x, n, k) == ref.filler_profile(n, k), (n, k)
            if n > horn_maps_up_to:
                continue
            maps = horn_maps(x, n, k)
            assert maps == ref.horn_maps(n, k), (n, k)
            assert horn_tuples(x, n, k) == ref.join(n, k), (n, k)
            for m in maps:
                assert horn_fillers(x, n, k, m) == ref.horn_fillers(n, k, m)


def _corpus_nerves(cap):
    for name, c in all_categories().items():
        yield name, nerve(c, dim_cap=cap).sset
    for name, c2 in all_two_categories().items():
        yield name, duskin_nerve(c2, dim_cap=cap).sset


def test_position_route_matches_the_simplex_ref_route_on_the_corpus():
    for name, x in _corpus_nerves(4):
        _assert_routes_agree(x, 4, horn_maps_up_to=3)


@settings(max_examples=40, deadline=None)
@given(_random_target())
def test_position_route_matches_the_simplex_ref_route_on_random_targets(target):
    x, cap = target
    _assert_routes_agree(x, cap, horn_maps_up_to=cap)


def _monotone_maps(m, n):
    """Every monotone map [m] -> [n], as a tuple of values."""
    return [tuple(sorted(c)) for c in itertools.combinations_with_replacement(range(n + 1), m + 1)]


def _spread(seq, k):
    """k entries spread evenly over seq, or all of seq when it is shorter."""
    if len(seq) <= k:
        return list(seq)
    return [seq[s * len(seq) // k] for s in range(k)]


def test_restrict_matches_face_stripping_over_every_monotone_map():
    count = 0
    for name, x in _corpus_nerves(4):
        for n in range(5):
            alphas = [a for m in range(5) for a in _monotone_maps(m, n)]
            for ref in _spread(x.simplices(n), 3):
                for alpha in alphas:
                    assert x.restrict(ref, alpha) == _strip_restrict(x, ref, alpha), (name, ref)
                    count += 1
    assert count > 30_000


def test_horn_generators_and_filler_indexes_are_cached():
    assert horn_generators(3, 1) is horn_generators(3, 1)
    x = nerve(all_categories()["poset2"], dim_cap=3).sset
    assert x.filler_index(3, 1) is x.filler_index(3, 1)
    # one level table per set, grown in place, with its indexes cached on it
    assert x.table(1) is x.table() and x.table().face_index(2) is x.table(2).face_index(2)


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
