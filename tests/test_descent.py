"""Sheaf and stack conditions on finite sites, and Cech descent."""

import itertools
import time
import tracemalloc
from fractions import Fraction

import pytest

from hornfill.corpus import all_small_groups, cover_of_shape, cover_shapes, refine_cover
from hornfill.descent import (
    CechSkeletonReport,
    ConstantBGPresheaf,
    ConstantPresheaf,
    Cover,
    DoubledBGPresheaf,
    DoubledGlobalPresheaf,
    FiniteSpace,
    GroupoidPresheaf,
    MapPresheaf,
    OpensConstantPresheaf,
    OpensMapPresheaf,
    RefinementReport,
    StackReport,
    TorsorPresheaf,
    TruncationReport,
    _Functions,
    _is_base,
    cech_cocycles,
    cech_descent_skeleton,
    cech_stack_report,
    check_sheaf_opens,
    check_sheaf_sets,
    check_stack_groupoids,
    cochain_action,
    constant_bg_presheaf,
    descent_groupoid,
    refinement_invariance,
    torsor_presheaf,
    truncation_agreement_cech,
    truncation_agreement_groupoids,
    truncation_agreement_sets,
    _CechCensus,
    _Fibre,
)
from hornfill.errors import CapacityError, InputError
from hornfill.groupoid import FiniteGroup, groupoid_cardinality, symmetric_group

GROUPS = all_small_groups()


def test_cover_validation():
    with pytest.raises(InputError):
        Cover(("x", "y"), ("u", "v"), {"x": "u", "y": "u"})  # v uncovered
    with pytest.raises(InputError):
        Cover(("x",), ("u",), {"x": "u"}, parts=(("x", "x"),))
    c = cover_of_shape((2, 1), split=True)
    assert c.parts == (("e0_0",), ("e0_1",), ("e1_0",))


# ---------------------------------------------------------------------------
# the site maps as dicts, built the way Cover built them before it read
# them off its nerve: the oracle for the nerve's rows and for the
# descent groupoid


def _power(cover, n):
    """The n-fold fibre power of E over B; elements are bare for n=1."""
    if n == 1:
        return cover.e
    out = []
    for xs in cover.fibers().values():
        out.extend(itertools.product(xs, repeat=n))
    return tuple(sorted(out))


def _coface(cover, n, i):
    """Site map E^(n+1) -> E^n omitting coordinate i."""
    alpha = {}
    for t in _power(cover, n + 1):
        img = t[:i] + t[i + 1:]
        alpha[t] = img[0] if n == 1 else img
    return alpha


def _diagonal(cover):
    """Site map E -> E x_B E."""
    return {x: (x, x) for x in cover.e}


def _projection(cover, n, coords):
    """Site map E^n -> E^len(coords) selecting the given coordinates."""
    alpha = {}
    for t in _power(cover, n):
        img = tuple(t[c] for c in coords)
        alpha[t] = img[0] if len(coords) == 1 else img
    return alpha


def _row(alpha, dom, cod):
    """A site map given as a dict, as the row from the positions of the
    site object dom to those of cod."""
    at = {x: p for p, x in enumerate(cod)}
    return [at[alpha[x]] for x in dom]


def test_fibre_power_counts_and_simplicial_identities():
    cover = cover_of_shape((3, 2))
    assert [len(cover.sites[n]) for n in range(3)] == [5, 13, 35]  # 9 + 4, 27 + 8
    # d_i d_j = d_{j-1} d_i for i < j, evaluated pointwise on E^3
    for j in range(1, 3):
        for i in range(j):
            a1, b1 = _coface(cover, 2, i), _coface(cover, 1, j - 1)
            a2, b2 = _coface(cover, 2, j), _coface(cover, 1, i)
            assert {t: b2[a2[t]] for t in _power(cover, 3)} == {
                t: b1[a1[t]] for t in _power(cover, 3)}, (i, j)
    # the nerve's levels are the fibre powers, listed for functions in the
    # old order, and its rows are the dict site maps
    for prof in cover_shapes():
        cover = cover_of_shape(prof)
        nerve, site = cover.nerve, cover.sites
        for n in range(4):
            assert [site[n][p] for p in site[n].order] == list(_power(cover, n + 1)), prof
        for n in (1, 2, 3):
            for i in range(n + 1):
                assert list(nerve.faces[n][i]) == _row(
                    _coface(cover, n, i), site[n], site[n - 1]), (prof, n, i)
            for v in range(n + 1):
                assert list(nerve.restriction_table(n, (v,))) == _row(
                    _projection(cover, n + 1, (v,)), site[n], site[0]), (prof, n, v)
        assert list(nerve.degs[0][0]) == _row(_diagonal(cover), site[0], site[1]), prof
        for p in range(4):
            for q in range(p + 1, 4):
                assert list(nerve.restriction_table(3, (p, q))) == _row(
                    _projection(cover, 4, (p, q)), site[3], site[1]), (prof, p, q)
        row, b = cover.anchor()
        assert row == _row(dict(cover.pi), site[0], b), prof


def test_representable_presheaf_is_a_sheaf_on_every_shape():
    values = {"v0": "v0", "v1": "v1"}
    for prof in [(1,), (3,), (2, 1), (2, 2, 1)]:
        for split in (False, True):
            rep = check_sheaf_sets(MapPresheaf(values), cover_of_shape(prof, split))
            assert rep.is_sheaf, (prof, split)
            assert rep.products_ok and rep.equalizer_ok


def test_constant_presheaf_fails_products_on_split_covers():
    ps = ConstantPresheaf(("c0", "c1"))
    rep = check_sheaf_sets(ps, cover_of_shape((2, 2), split=True))
    assert not rep.products_ok
    assert rep.equalizer_ok  # the equalizer condition alone cannot see it
    assert not rep.is_sheaf and rep.witness
    # with no splitting the parts condition is vacuous
    assert check_sheaf_sets(ps, cover_of_shape((2, 2))).is_sheaf


def test_doubled_global_presheaf_fails_the_equalizer():
    cover = cover_of_shape((2, 1))
    rep = check_sheaf_sets(DoubledGlobalPresheaf(("c0", "c1"), cover.b), cover)
    assert rep.products_ok
    # comparison collapses the forgotten coordinate and misses the
    # fiberwise-constant sections that differ across fibers
    assert not rep.equalizer_injective
    assert not rep.equalizer_surjective
    assert rep.global_count == 4 and rep.equalizer_count == 4
    assert "restrict equally" in rep.witness


class _Trimmed(MapPresheaf):
    """Functions everywhere, with F(B) and F(E) cut to the slices given,
    so that the equalizer condition fails by surjectivity."""

    def __init__(self, values, b, base, other):
        super().__init__(values)
        self.b, self.base, self.other = tuple(b), base, other

    def value(self, obj):
        out = list(super().value(obj))
        return out[self.base if _is_base(obj, self.b) else self.other]


def test_sheaf_witnesses_print_functions_as_key_sorted_pairs():
    # the witnesses as they were printed when functions were key-sorted
    # tuples of pairs, on a cover whose E and B are not listed sorted
    cases = [
        (slice(-1, None), slice(None), "matching family {} is not glued"),
        (slice(0, 1), slice(None), "matching family {} is not glued"),
        (slice(None), slice(1, None), "image element {} not matching"),
    ]
    unsorted = Cover(("y", "x", "w"), ("q", "p"), {"y": "q", "x": "p", "w": "q"})
    shown = [
        (unsorted, ["(('w', 'v0'), ('x', 'v0'), ('y', 'v0'))",
                    "(('w', 'v0'), ('x', 'v1'), ('y', 'v0'))",
                    "(('w', 'v0'), ('x', 'v0'), ('y', 'v0'))"]),
        (cover_of_shape((2, 1)), ["(('e0_0', 'v0'), ('e0_1', 'v0'), ('e1_0', 'v0'))",
                                  "(('e0_0', 'v0'), ('e0_1', 'v0'), ('e1_0', 'v1'))",
                                  "(('e0_0', 'v0'), ('e0_1', 'v0'), ('e1_0', 'v0'))"]),
    ]
    for cover, elements in shown:
        for (base, other, text), element in zip(cases, elements):
            rep = check_sheaf_sets(_Trimmed(("v0", "v1"), cover.b, base, other), cover)
            assert rep.witness == "equalizer: " + text.format(element), (cover.e, text)


def test_sheaf_counts_for_representable_presheaf():
    cover = cover_of_shape((3, 2))
    rep = check_sheaf_sets(MapPresheaf({"v0": "v0", "v1": "v1"}), cover)
    assert rep.global_count == 2 ** len(cover.b)
    assert rep.equalizer_count == rep.global_count


def test_set_truncation_agreement_across_shapes():
    for prof in [(1,), (2,), (2, 1), (3, 2)]:
        cover = cover_of_shape(prof)
        for ps in (
            MapPresheaf({"v0": "v0", "v1": "v1"}),
            ConstantPresheaf(("c0", "c1")),
            DoubledGlobalPresheaf(("c0", "c1"), cover.b),
        ):
            rep = truncation_agreement_sets(ps, cover)
            assert rep.agree, (prof, type(ps).__name__)
            assert rep.sizes[2] == rep.sizes[3]


def _two_point_space():
    pts = ("p", "q")
    return FiniteSpace(
        pts,
        {
            "empty": frozenset(),
            "P": frozenset({"p"}),
            "Q": frozenset({"q"}),
            "PQ": frozenset(pts),
        },
    )


def test_finite_space_validation_requires_intersection_closure():
    with pytest.raises(InputError):
        FiniteSpace(
            ("p", "q", "r"),
            {
                "empty": frozenset(),
                "A": frozenset({"p", "q"}),
                "B": frozenset({"q", "r"}),
                "all": frozenset({"p", "q", "r"}),
                # A & B = {q} missing
            },
        )


def test_opens_sheaf_conditions_on_the_two_point_space():
    space = _two_point_space()
    rep_values = {"P": ("a", "b"), "Q": ("c",), "PQ": None, "empty": None}
    # product presheaf: F(U) = product of stalks over points of U
    stalks = {"p": ("a", "b"), "q": ("c", "d")}

    class Product(OpensMapPresheaf):
        def __init__(self):
            pass

        def value(self, sp, name):
            out = [()]
            for pt in sorted(sp.opens[name]):
                out = [t + (s,) for t in out for s in stalks[pt]]
            return tuple(out)

        def restrict(self, sp, sup, sub, elem):
            sup_pts = sorted(sp.opens[sup])
            keep = [i for i, pt in enumerate(sup_pts) if pt in sp.opens[sub]]
            return tuple(elem[i] for i in keep)

    rep = check_sheaf_opens(Product(), space, "PQ", ("P", "Q"))
    assert rep.is_sheaf

    const = OpensConstantPresheaf(("c0", "c1"))
    # compatibility over the empty intersection forces the two sections
    # equal (F(empty) is constant too), so this family check passes
    rep2 = check_sheaf_opens(const, space, "PQ", ("P", "Q"))
    assert rep2.is_sheaf and rep2.global_count == 2 and rep2.equalizer_count == 2
    # the failure is at the empty cover of the empty open: one matching
    # family (the empty one) against two sections of F(empty)
    rep3 = check_sheaf_opens(const, space, "empty", ())
    assert not rep3.is_sheaf
    assert rep3.equalizer_count == 1 and rep3.global_count == 2


def test_cech_cocycle_count_is_group_to_the_excess():
    for prof in [(2,), (3,), (2, 2), (3, 2)]:
        cover = cover_of_shape(prof)
        for gname in ("c2", "c3", "s3"):
            g = GROUPS[gname]
            cocycles, pairs = cech_cocycles(g, cover)
            excess = len(cover.e) - len(cover.b)
            assert len(cocycles) == g.order() ** excess, (prof, gname)
            assert len(pairs) == sum(f * f for f in prof)


def test_cochain_action_is_a_group_action_on_cocycles():
    cover = cover_of_shape((3,))
    g = symmetric_group(3)
    cocycles, pairs = cech_cocycles(g, cover)
    cs = set(cocycles)
    h1 = {x: "120" for x in cover.e}
    h2 = {x: ("021" if x == "e0_0" else "201") for x in cover.e}
    for coc in cocycles:
        once = cochain_action(g, pairs, h1, coc)
        assert once in cs
        # (h2 . h1) acts as h2 after h1
        both = cochain_action(g, pairs, {x: g.mul[(h2[x], h1[x])] for x in cover.e}, coc)
        assert both == cochain_action(g, pairs, h2, once)


def test_cech_skeleton_census_for_s3_over_three_two():
    rep = cech_descent_skeleton(GROUPS["s3"], cover_of_shape((3, 2)))
    assert rep.cocycle_count == 216
    assert rep.components == 1
    assert rep.stabilizer_order == 36
    assert rep.stabilizer_fiber_constant
    assert rep.equivalent_to_bg_power
    assert rep.cardinality == Fraction(1, 36) == rep.expected_cardinality


def test_skeleton_matches_materialized_descent_groupoid():
    cases = [(g, prof) for g in ("c2", "c3") for prof in cover_shapes(4)]
    cases += [("s3", prof) for prof in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1)]]
    for gname, prof in cases:
        g, cover = GROUPS[gname], cover_of_shape(prof)
        skel = cech_descent_skeleton(g, cover)
        desc = descent_groupoid(torsor_presheaf(g), cover)
        assert len(desc.object_data) == skel.cocycle_count, (prof, gname)
        assert len(desc.groupoid.components()) == skel.components, (prof, gname)
        assert len(desc.groupoid.hom("z0", "z0")) == skel.stabilizer_order, (prof, gname)
        assert groupoid_cardinality(desc.groupoid) == skel.cardinality, (prof, gname)


def test_descent_depth_three_adds_no_conditions():
    cover = cover_of_shape((2, 1))
    for gname in ("c2", "c3"):
        rep = truncation_agreement_groupoids(torsor_presheaf(GROUPS[gname]), cover)
        assert rep.agree and rep.sizes[2] == rep.sizes[3]


def test_torsor_presheaf_is_a_stack():
    for prof in [(2,), (2, 1)]:
        for split in (False, True):
            cover = cover_of_shape(prof, split)
            rep = check_stack_groupoids(torsor_presheaf(GROUPS["c2"]), cover)
            assert rep.is_stack, (prof, split)
            assert rep.products_ok and rep.descent_ok


def test_constant_bg_presheaf_fails_products_only():
    cover = cover_of_shape((2, 2), split=True)
    rep = check_stack_groupoids(ConstantBGPresheaf(GROUPS["c2"]), cover)
    assert not rep.products_ok
    assert rep.descent_ok
    assert not rep.is_stack and rep.witness


def test_doubled_bg_presheaf_fails_full_faithfulness():
    cover = cover_of_shape((2, 1))
    rep = check_stack_groupoids(DoubledBGPresheaf(GROUPS["c2"], cover.b), cover)
    assert rep.essentially_surjective
    assert not rep.fully_faithful
    assert not rep.is_stack


def test_cech_stack_report_equals_skeletal_verdict():
    cover = cover_of_shape((2, 1))
    for gname in ("c2", "v4"):
        rep = cech_stack_report(GROUPS[gname], cover)
        assert rep.is_stack
        skel = cech_descent_skeleton(GROUPS[gname], cover)
        assert skel.equivalent_to_bg_power


def test_refinement_invariance_on_a_duplicated_point():
    cover = cover_of_shape((2, 1))
    refined, r = refine_cover(cover, {"b0": 1, "b1": 1})
    for gname in ("c2", "s3"):
        rep = refinement_invariance(GROUPS[gname], cover, refined, r)
        assert rep.restriction_is_equivalence, gname
        assert rep.skeletons_agree, gname


def test_refinement_map_must_live_over_the_base():
    cover = cover_of_shape((2, 1))
    refined, r = refine_cover(cover, {"b0": 1})
    bad_r = dict(r)
    bad_r["cb0_0"] = "e1_0"  # crosses fibers
    with pytest.raises(InputError):
        refinement_invariance(GROUPS["c2"], cover, refined, bad_r)


def test_cech_truncation_agreement_samples():
    for prof in [(2,), (3, 1)]:
        cover = cover_of_shape(prof)
        for gname in ("c3", "s3"):
            rep = truncation_agreement_cech(GROUPS[gname], cover)
            assert rep.agree


def test_cover_shapes_enumerates_all_profiles():
    shapes = cover_shapes()
    assert len(shapes) == 18
    assert len(set(shapes)) == 18
    assert all(sum(p) <= 5 and all(a >= b for a, b in zip(p, p[1:])) for p in shapes)
    assert len(cover_shapes(max_parts=3)) == 15


# ---------------------------------------------------------------------------
# brute-force oracles: the cochain census over all of G^E and over every
# cocycle of the whole cover, as it was computed before the fibrewise census


def _oracle_cocycles(group, cover):
    pairs = tuple(sorted(
        (x, y) for xs in cover.fibers().values() for x in xs for y in xs
    ))
    fibers = [xs for xs in cover.fibers().values() if xs]
    e = group.identity()
    per_fiber = []
    for xs in fibers:
        choices = []
        for vals in itertools.product(group.elements, repeat=len(xs) - 1):
            to_root = {xs[0]: e}
            to_root.update(zip(xs[1:], vals))
            choices.append({
                (x, y): group.mul[(to_root[y], group.inverse(to_root[x]))]
                for x in xs for y in xs
            })
        per_fiber.append(choices)
    out = []
    for combo in itertools.product(*per_fiber):
        table = {}
        for local in combo:
            table.update(local)
        for xs in fibers:
            for x, y, z in itertools.product(xs, repeat=3):
                assert table[(x, x)] == e
                assert group.mul[(table[(y, z)], table[(x, y)])] == table[(x, z)]
        out.append(tuple(table[p] for p in pairs))
    return out, pairs


def _oracle_orbits(group, cover, cocycles, pairs):
    index = set(cocycles)
    seen = set()
    orbits = []
    e = group.identity()
    for start in cocycles:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            c = frontier.pop()
            for x in cover.e:
                for s in group.generating_sequence():
                    h = {y: e for y in cover.e}
                    h[x] = s
                    nxt = cochain_action(group, pairs, h, c)
                    assert nxt in index
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def _oracle_stabilizer(group, cover, pairs, cocycle):
    out = []
    for vals in itertools.product(group.elements, repeat=len(cover.e)):
        h = dict(zip(cover.e, vals))
        if cochain_action(group, pairs, h, cocycle) == cocycle:
            out.append(h)
    return out


class _Oracle:
    """The old census of one (group, cover), and the reports built from it."""

    def __init__(self, group, cover):
        self.group, self.cover = group, cover
        self.cocycles, self.pairs = _oracle_cocycles(group, cover)
        self.orbits = _oracle_orbits(group, cover, self.cocycles, self.pairs)
        trivial = tuple(group.identity() for _ in self.pairs)
        self.stab = _oracle_stabilizer(group, cover, self.pairs, trivial)
        self.orbit_stab_orders = [
            len(_oracle_stabilizer(group, cover, self.pairs, sorted(orbit)[0]))
            for orbit in self.orbits
        ]

    def skeleton(self):
        g, fibers = self.group, list(self.cover.fibers().values())
        fiber_constant = all(
            len({h[x] for x in xs}) == 1 for h in self.stab for xs in fibers
        )
        expected_order = g.order() ** len(fibers)
        return CechSkeletonReport(
            cocycle_count=len(self.cocycles),
            components=len(self.orbits),
            stabilizer_order=len(self.stab),
            stabilizer_fiber_constant=fiber_constant,
            equivalent_to_bg_power=(
                len(self.orbits) == 1 and len(self.stab) == expected_order and fiber_constant
            ),
            cardinality=sum(Fraction(1, s) for s in self.orbit_stab_orders),
            expected_cardinality=Fraction(1, expected_order),
            fiber_count=len(fibers),
        )

    def stack(self):
        cover = self.cover
        stab = {tuple(sorted(h.items())) for h in self.stab}
        images = set()
        injective = True
        for vals in itertools.product(self.group.elements, repeat=len(cover.b)):
            hb = dict(zip(cover.b, vals))
            h = tuple(sorted((x, hb[cover.pi[x]]) for x in cover.e))
            injective = injective and h not in images
            images.add(h)
        ff = injective and images == stab
        ess = len(self.orbits) == 1
        return StackReport(
            products_ok=True, essentially_surjective=ess, fully_faithful=ff,
            is_stack=ess and ff, base_objects=1, descent_objects=len(self.cocycles),
            descent_components=len(self.orbits), witness="",
        )

    def truncation(self):
        g = self.group
        pos = {p: i for i, p in enumerate(self.pairs)}
        agree = True
        for coc in self.cocycles:
            for xs in self.cover.fibers().values():
                for w, x, y, z in itertools.product(xs, repeat=4):
                    direct = coc[pos[(w, z)]]
                    via_x = g.mul[(coc[pos[(x, z)]], coc[pos[(w, x)]])]
                    via_both = g.mul[
                        (coc[pos[(y, z)]], g.mul[(coc[pos[(x, y)]], coc[pos[(w, x)]])])
                    ]
                    agree = agree and direct == via_x == via_both
        count = len(self.cocycles)
        return TruncationReport({2: count, 3: count if agree else -1}, agree)


def _oracle_refinement(old, new, r):
    pos = {p: i for i, p in enumerate(old.pairs)}
    orbit_of = {c: i for i, orbit in enumerate(new.orbits) for c in orbit}
    hit = {
        orbit_of[tuple(c[pos[(r[x], r[y])]] for (x, y) in new.pairs)]
        for c in old.cocycles
    }
    ess = len(hit) == len(new.orbits)
    images = [tuple(sorted((x, h[r[x]]) for x in new.cover.e)) for h in old.stab]
    ff = len(set(images)) == len(images) and set(images) == {
        tuple(sorted(h.items())) for h in new.stab
    }
    skel1, skel2 = old.skeleton(), new.skeleton()
    agree = (
        skel1.components == skel2.components
        and skel1.stabilizer_order == skel2.stabilizer_order
        and skel1.cardinality == skel2.cardinality
    )
    return RefinementReport(
        restriction_essentially_surjective=ess,
        restriction_fully_faithful=ff,
        restriction_is_equivalence=ess and ff,
        skeletons_agree=agree,
    )


_ORACLES = {}


def _oracle(gname, group, cover):
    key = (gname, cover.e, cover.b, tuple(sorted(cover.pi.items())))
    if key not in _ORACLES:
        _ORACLES[key] = _Oracle(group, cover)
    return _ORACLES[key]


SHAPES = cover_shapes(max_parts=3)


def _relabelled(group, names):
    """The same group with element a renamed names[a]."""
    mul = {(names[a], names[b]): names[c] for (a, b), c in group.mul.items()}
    return FiniteGroup(tuple(names[a] for a in group.elements), mul)


def _irregular_cases():
    """Covers whose fibres interleave in name order, and groups whose
    identity is not their least element."""
    c3 = _relabelled(GROUPS["c3"], {"c0": "i", "c1": "a", "c2": "b"})
    s3 = _relabelled(
        GROUPS["s3"], {a: f"p{5 - i}" for i, a in enumerate(GROUPS["s3"].elements)}
    )
    covers = [
        Cover(("a", "b", "c"), ("u", "v"), {"a": "u", "b": "v", "c": "u"}),
        Cover(("z", "y", "x", "w"), ("v", "u"), {"z": "u", "y": "v", "x": "u", "w": "v"}),
    ]
    for gname, g in (("c3'", c3), ("s3'", s3), ("c2", GROUPS["c2"])):
        for cover in covers:
            yield gname, g, cover


def test_census_matches_the_brute_force_oracles_on_every_shape():
    checked = 0
    cases = [(gname, g, cover_of_shape(prof)) for prof in SHAPES for gname, g in GROUPS.items()]
    for gname, g, cover in cases + list(_irregular_cases()):
        old = _oracle(gname, g, cover)
        case = (cover.e, gname)
        assert cech_cocycles(g, cover) == (old.cocycles, old.pairs), case
        assert cech_descent_skeleton(g, cover) == old.skeleton(), case
        assert cech_stack_report(g, cover) == old.stack(), case
        assert truncation_agreement_cech(g, cover) == old.truncation(), case
        checked += 1
    assert checked == 15 * 8 + 6


def _suite_8_refinements():
    for prof in SHAPES:
        if sum(prof) >= 5:
            continue
        cover = cover_of_shape(prof)
        extras = [{"b0": 1}]
        if sum(prof) + len(prof) <= 5:
            extras.append({b: 1 for b in cover.b})
        for extra in extras:
            yield (cover,) + refine_cover(cover, extra)


def test_refinement_matches_the_brute_force_oracle_on_every_suite_8_refinement():
    checked = 0
    for cover, refined, r in _suite_8_refinements():
        for gname, g in GROUPS.items():
            expected = _oracle_refinement(
                _oracle(gname, g, cover), _oracle(gname, g, refined), r
            )
            assert refinement_invariance(g, cover, refined, r) == expected, (cover.e, gname)
            checked += 1
    assert checked == 128
    # a refinement that sends new points to the last point of a fibre
    for gname, g, cover in _irregular_cases():
        fibers = cover.fibers()
        extra = {f"n{i}": x for i, (b, xs) in enumerate(fibers.items()) for x in xs[-1:]}
        refined = Cover(
            cover.e + tuple(extra), cover.b,
            {**cover.pi, **{n: cover.pi[x] for n, x in extra.items()}},
        )
        r = {**{x: x for x in cover.e}, **extra}
        expected = _oracle_refinement(
            _oracle(gname, g, cover), _oracle(gname, g, refined), r
        )
        assert refinement_invariance(g, cover, refined, r) == expected


def test_trivial_cocycle_stabilizer_is_exactly_the_fibre_constant_cochains():
    for prof in SHAPES:
        cover = cover_of_shape(prof)
        for gname, g in GROUPS.items():
            census = _CechCensus(g, cover, budget=10**6)
            found = {
                tuple(sorted(
                    (x, g.elements[v])
                    for points, h in zip(census.points, hs)
                    for x, v in zip(points, h)
                ))
                for hs in itertools.product(*(f.trivial_stabilizer for f in census.fibres))
            }
            constant = set()
            for vals in itertools.product(g.elements, repeat=len(cover.b)):
                hb = dict(zip(cover.b, vals))
                constant.add(tuple(sorted((x, hb[cover.pi[x]]) for x in cover.e)))
            assert found == constant, (prof, gname)
            oracle = {tuple(sorted(h.items())) for h in _oracle(gname, g, cover).stab}
            assert found == oracle, (prof, gname)


def test_the_cochain_group_bound_no_longer_applies():
    # |S3|^|E| = 7776 candidates used to be refused at budget 1000; the
    # census enumerates 36 + 6 cocycles and 24 stabilizer candidates
    g, cover = GROUPS["s3"], cover_of_shape((3, 2))
    refined, r = refine_cover(cover, {"b0": 1})
    assert g.order() ** len(cover.e) > 1000
    assert cech_descent_skeleton(g, cover, budget=1000) == cech_descent_skeleton(g, cover)
    assert cech_stack_report(g, cover, budget=1000).is_stack
    assert truncation_agreement_cech(g, cover, budget=1000).agree
    rep = refinement_invariance(g, cover, refined, r, budget=1000)
    assert rep.restriction_is_equivalence and rep.skeletons_agree


def test_census_budget_counts_candidates_and_reports_fibres_done():
    g, cover = GROUPS["s3"], cover_of_shape((3, 2))
    # first fibre: 36 cocycles + 2 * 6 candidates; second: 6 + 2 * 6
    for budget, partial in ((1, 0), (47, 0), (48, 1), (65, 1)):
        with pytest.raises(CapacityError) as info:
            cech_descent_skeleton(g, cover, budget=budget)
        assert info.value.partial == partial, budget
    assert cech_descent_skeleton(g, cover, budget=66).equivalent_to_bg_power
    # the full cocycle list adds its 216 cocycles on top
    with pytest.raises(CapacityError) as info:
        cech_cocycles(g, cover, budget=66 + 215)
    assert info.value.partial == 2
    assert len(cech_cocycles(g, cover, budget=66 + 216)[0]) == 216


def _fresh(group):
    """A copy of the group rebuilt from its elements and table, with no
    fibre census kept yet."""
    return FiniteGroup(group.elements, group.mul)


def _count_fibre_builds(monkeypatch):
    """The (integer group, fibre size) of every fibre census built."""
    built = []
    build = _Fibre.__init__

    def counting(self, ig, points):
        built.append((ig, len(points)))
        build(self, ig, points)

    monkeypatch.setattr(_Fibre, "__init__", counting)
    return built


def _cech_ops():
    """(name, op on a group) for every Cech check on every shape and
    suite-8 refinement."""
    for prof in SHAPES:
        cover = cover_of_shape(prof)
        for op in (cech_descent_skeleton, cech_stack_report, truncation_agreement_cech,
                   cech_cocycles):
            yield (op.__name__, prof), lambda g, op=op, cover=cover: op(g, cover)
    for cover, refined, r in _suite_8_refinements():
        yield ("refinement", cover.e, refined.e), (
            lambda g, cover=cover, refined=refined, r=r: refinement_invariance(
                g, cover, refined, r))


def test_each_group_builds_one_fibre_census_per_fibre_size(monkeypatch):
    built = _count_fibre_builds(monkeypatch)
    groups = {gname: _fresh(g) for gname, g in GROUPS.items()}
    for _, op in _cech_ops():
        for g in groups.values():
            op(g)
    sizes = {size for prof in SHAPES for size in prof}
    expected = {(g._cech, size) for g in groups.values() for size in sizes}
    assert len(built) == len(set(built)) == len(expected) == 8 * 5
    assert set(built) == expected
    built.clear()
    cech_descent_skeleton(_fresh(GROUPS["s3"]), cover_of_shape((1, 1, 1)))
    assert [size for _, size in built] == [1]


def test_kept_fibre_censuses_give_what_a_fresh_group_gives():
    for gname, g in GROUPS.items():
        for fresh_first in (True, False):
            warmed = _fresh(g)
            for _, op in _cech_ops():
                op(warmed)
            for name, op in _cech_ops():
                if fresh_first:
                    want = op(_fresh(g))
                    got = op(warmed)
                else:
                    got = op(warmed)
                    want = op(_fresh(g))
                assert got == want, (gname, name, fresh_first)


def test_census_budget_is_charged_alike_with_and_without_kept_censuses():
    g, cover = _fresh(GROUPS["s3"]), cover_of_shape((3, 2))

    def refusals():
        out = []
        for budget in (1, 47, 48, 65):
            with pytest.raises(CapacityError) as info:
                cech_descent_skeleton(g, cover, budget=budget)
            out.append((budget, str(info.value), info.value.partial))
        assert cech_descent_skeleton(g, cover, budget=66).equivalent_to_bg_power
        with pytest.raises(CapacityError) as info:
            cech_cocycles(g, cover, budget=66 + 215)
        out.append((66 + 215, str(info.value), info.value.partial))
        assert len(cech_cocycles(g, cover, budget=66 + 216)[0]) == 216
        return out

    cold = refusals()
    assert sorted(g._cech.fibres) == [2, 3]
    assert refusals() == cold
    assert [(budget, partial) for budget, _, partial in cold] == [
        (1, 0), (47, 0), (48, 1), (65, 1), (66 + 215, 2)
    ]


def test_doubled_presheaves_tell_the_base_from_a_cover_on_the_same_points():
    # E and B hold the same point; only the base carries the doubled value
    cover = Cover(("a",), ("a",), {"a": "a"})
    sheaf = check_sheaf_sets(DoubledGlobalPresheaf(("c0", "c1"), cover.b), cover)
    assert sheaf.products_ok and not sheaf.equalizer_injective
    stack = check_stack_groupoids(DoubledBGPresheaf(GROUPS["c2"], cover.b), cover)
    assert stack.products_ok and stack.descent_objects == 1
    assert not stack.fully_faithful


def _int_table(group):
    """The group's multiplication on element indices, and the identity's."""
    at = {a: i for i, a in enumerate(group.elements)}
    mul = [[at[group.mul[(b, a)]] for a in group.elements] for b in group.elements]
    return mul, at[group.identity()]


class _TwoObjectBG(GroupoidPresheaf):
    """Two objects everywhere with every hom set G, a morphism being one
    entry: more morphism candidates than object candidates."""

    def __init__(self, group):
        self.group = group
        self.mul, self.e = _int_table(group)

    def objects(self, s):
        return ("*", "o")

    def homs(self, s, a, b):
        return _Functions(range(len(self.mul)), 1)

    def identity(self, s, a):
        return (self.e,)

    def restrict_obj(self, row, cod, a):
        return a

    def mor_row(self, row, cod):
        return (0,)


# the generate-and-test object search, the morphism search and the
# composition table that descent_groupoid's entry search and rows
# replaced, kept as the oracle; every site map is a dict map as a row


def _oracle_descent_objects(presheaf, cover, depth):
    e, e2, e3 = (cover.sites[n] for n in range(3))
    d0_1 = _row(_coface(cover, 1, 0), e2, e)
    d1_1 = _row(_coface(cover, 1, 1), e2, e)
    diag = _row(_diagonal(cover), e, e2)
    cofaces_2 = [_row(_coface(cover, 2, i), e3, e2) for i in range(3)]
    out = []
    for a in presheaf.objects(e):
        a_src = presheaf.restrict_obj(d1_1, e, a)
        a_tgt = presheaf.restrict_obj(d0_1, e, a)
        for phi in presheaf.homs(e2, a_src, a_tgt):
            if presheaf.restrict_mor(diag, e2, phi) != presheaf.identity(e, a):
                continue
            al0, al1, al2 = cofaces_2
            lhs = presheaf.restrict_mor(al1, e2, phi)
            rhs = presheaf.compose(
                e3,
                presheaf.restrict_mor(al0, e2, phi),
                presheaf.restrict_mor(al2, e2, phi),
            )
            if lhs != rhs:
                continue
            if depth >= 3 and not _oracle_quadruple_conditions(presheaf, cover, phi):
                continue
            out.append((a, phi))
    return out


def _oracle_quadruple_conditions(presheaf, cover, phi):
    e2, e4 = cover.sites[1], cover.sites[3]
    pulled = {}
    for p in range(4):
        for q in range(p + 1, 4):
            row = _row(_projection(cover, 4, (p, q)), e4, e2)
            pulled[(p, q)] = presheaf.restrict_mor(row, e2, phi)
    comp = lambda g2, g1: presheaf.compose(e4, g2, g1)
    direct = pulled[(0, 3)]
    routes = [
        comp(pulled[(1, 3)], pulled[(0, 1)]),
        comp(pulled[(2, 3)], pulled[(0, 2)]),
        comp(pulled[(2, 3)], comp(pulled[(1, 2)], pulled[(0, 1)])),
    ]
    return all(r == direct for r in routes)


def _oracle_descent_tables(presheaf, cover):
    """The descent groupoid's objects, morphisms, identities and
    composition table: every site map is built where it is used, both
    gluing composites are computed for every candidate (i, j, h), and the
    composition table is scanned over all pairs of morphisms."""
    e, e2 = cover.sites[0], cover.sites[1]
    objects = _oracle_descent_objects(presheaf, cover, 2)
    d0_1 = _row(_coface(cover, 1, 0), e2, e)
    d1_1 = _row(_coface(cover, 1, 1), e2, e)
    names = [f"z{i}" for i in range(len(objects))]
    morphisms, morphism_data, lookup = {}, {}, {}
    for i, (a, phi) in enumerate(objects):
        for j, (a2, phi2) in enumerate(objects):
            for h in presheaf.homs(e, a, a2):
                left = presheaf.compose(e2, presheaf.restrict_mor(d0_1, e, h), phi)
                right = presheaf.compose(e2, phi2, presheaf.restrict_mor(d1_1, e, h))
                if left != right:
                    continue
                name = f"h{len(morphisms)}"
                morphisms[name] = (names[i], names[j])
                morphism_data[name] = (i, j, h)
                lookup[(i, j, h)] = name
    identity = {
        names[i]: lookup[(i, i, presheaf.identity(e, a))] for i, (a, _) in enumerate(objects)
    }
    compose = {}
    for n2, (j2, k, h2) in morphism_data.items():
        for n1, (i, j1, h1) in morphism_data.items():
            if j1 == j2:
                compose[(n2, n1)] = lookup[(i, k, presheaf.compose(e, h2, h1))]
    return objects, morphisms, morphism_data, identity, compose


# covers whose E and B are not listed in sorted order, unsplit and split
_UNSORTED_COVERS = (
    Cover(("y", "x", "w"), ("q", "p"), {"y": "q", "x": "p", "w": "q"}),
    Cover(("b1", "a2", "a1"), ("p",), {"b1": "p", "a2": "p", "a1": "p"}),
    Cover(("y", "x", "w"), ("q", "p"), {"y": "q", "x": "p", "w": "q"}, (("y",), ("x", "w"))),
)


def test_descent_groupoid_matches_the_per_candidate_oracle():
    tables = truncations = 0
    covers = [(shape, cover_of_shape(shape)) for shape in ((1,), (2,), (1, 1), (2, 1))]
    covers += [(cover.e, cover) for cover in _UNSORTED_COVERS]
    for shape, cover in covers:
        for gname in ("c1", "c2", "c3"):
            g = GROUPS[gname]
            for presheaf in (torsor_presheaf(g), constant_bg_presheaf(g),
                             DoubledBGPresheaf(g, cover.b), _TwoObjectBG(g)):
                where = (shape, gname, type(presheaf).__name__)
                desc = descent_groupoid(presheaf, cover)
                objects, morphisms, morphism_data, identity, compose = (
                    _oracle_descent_tables(presheaf, cover)
                )
                assert desc.object_data == objects, where
                assert desc.groupoid.mor == morphisms, where
                assert list(desc.morphism_data.items()) == list(morphism_data.items()), where
                assert desc.groupoid.identity == identity, where
                assert list(desc.groupoid.compose_table.items()) == list(compose.items()), where
                tables += 1
                sizes = {
                    depth: len(_oracle_descent_objects(presheaf, cover, depth))
                    for depth in (2, 3)
                }
                report = truncation_agreement_groupoids(presheaf, cover)
                assert report == TruncationReport(sizes, sizes[2] == sizes[3]), where
                truncations += 1
    assert (tables, truncations) == (84, 84)


def _old_functions(keys, values):
    """Every function keys -> values as its key-sorted pairs, the first
    key varying slowest: the order the hom sets listed them in before."""
    for vs in itertools.product(values, repeat=len(keys)):
        yield tuple(sorted(zip(keys, vs)))


def test_hom_sets_list_functions_in_the_old_order_on_unsorted_covers():
    # the names z_i and h_k follow the order of homs over E x_B E and over
    # E, and on these covers the nerve lists E in another order
    assert all(tuple(cover.sites[0]) != cover.e for cover in _UNSORTED_COVERS)
    for cover in _UNSORTED_COVERS + (cover_of_shape((2, 1)),):
        for gname in ("c2", "c3"):
            g = GROUPS[gname]
            presheaf = torsor_presheaf(g)
            for n in (0, 1):
                site = cover.sites[n]
                got = [
                    tuple(sorted(zip(site, (g.elements[v] for v in h))))
                    for h in presheaf.homs(site, "*", "*")
                ]
                assert got == list(_old_functions(_power(cover, n + 1), g.elements))


def _sorted_compose(group, site, g2, g1):
    """The torsor presheaf's composite as key-sorted pairs, read through
    dicts over the points of the site object."""
    d2 = {x: group.elements[v] for x, v in zip(site, g2)}
    d1 = {x: group.elements[v] for x, v in zip(site, g1)}
    return tuple(sorted((x, group.mul[(d2[x], d1[x])]) for x in d1))


def test_torsor_compose_matches_the_sorted_composite():
    # every pair over E and, for C2 and C3, over E x_B E; S3 has 6^5
    # functions over E x_B E, so there every pair with a gluing of a
    # descent object on either side
    cover = cover_of_shape((2, 1))
    e, e2 = cover.sites[0], cover.sites[1]
    for name in ("c2", "c3", "s3"):
        g = GROUPS[name]
        presheaf = torsor_presheaf(g)
        over_e, over_e2 = list(presheaf.homs(e, "*", "*")), list(presheaf.homs(e2, "*", "*"))
        pairs = [(e, g2, g1) for g2 in over_e for g1 in over_e]
        if name == "s3":
            phis = [phi for _, phi in descent_groupoid(presheaf, cover).object_data]
            pairs += [(e2, p, q) for phi in phis for h in over_e2 for p, q in ((phi, h), (h, phi))]
        else:
            pairs += [(e2, g2, g1) for g2 in over_e2 for g1 in over_e2]
        for s, g2, g1 in pairs:
            got = presheaf.compose(s, g2, g1)
            assert tuple(sorted(zip(s, (g.elements[v] for v in got)))) == _sorted_compose(
                g, s, g2, g1)
        assert len(pairs) == {"c2": 8 ** 2 + 32 ** 2, "c3": 27 ** 2 + 243 ** 2,
                              "s3": 216 ** 2 + 6 * 2 * 7776}[name]


class _TwistedTorsor(TorsorPresheaf):
    """The torsor presheaf with its composition over E^4 multiplied by a
    fixed element: not strict, so depth-2 descent data can fail the
    quadruple conditions."""

    def __init__(self, group, twist, cover):
        super().__init__(group)
        self.twist = group.elements.index(twist)
        self.e4 = tuple(cover.sites[3])

    def compose(self, s, g2, g1):
        out = super().compose(s, g2, g1)
        if tuple(s) != self.e4:
            return out
        return tuple(self.mul[self.twist][g] for g in out)


def test_truncation_agreement_groupoids_reports_objects_dropped_at_depth_three():
    c2 = GROUPS["c2"]
    expected = {(1,): {2: 1, 3: 0}, (2,): {2: 2, 3: 0}, (2, 1): {2: 2, 3: 0}}
    for shape, sizes in expected.items():
        cover = cover_of_shape(shape)
        presheaf = _TwistedTorsor(c2, "c1", cover)
        oracle = {
            depth: len(_oracle_descent_objects(presheaf, cover, depth)) for depth in (2, 3)
        }
        assert oracle == sizes, shape
        report = truncation_agreement_groupoids(presheaf, cover)
        assert report == TruncationReport(sizes, False), shape


def test_truncation_agreement_groupoids_builds_one_descent_groupoid(monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return descent_groupoid(*args, **kwargs)

    monkeypatch.setattr("hornfill.descent.descent_groupoid", counted)
    report = truncation_agreement_groupoids(torsor_presheaf(GROUPS["c2"]), cover_of_shape((2, 1)))
    assert report == TruncationReport({2: 2, 3: 2}, True)
    assert len(builds) == 1


class _CollapsingBG(_TwoObjectBG):
    """Both objects restrict to "*", so the parts condition is met only
    because "*" and "o" lie in one component of each part."""

    def restrict_obj(self, row, cod, a):
        return "*"


def test_products_condition_puts_connected_objects_in_one_component():
    for shape in ((2,), (2, 1)):
        report = check_stack_groupoids(_CollapsingBG(GROUPS["c2"]), cover_of_shape(shape))
        assert report.products_ok and report.is_stack, shape


def test_descent_object_search_refuses_before_building_its_candidates():
    # 3 ** 10 gluing candidates over E x_B E; budget 1 must not build them
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapacityError) as info:
            descent_groupoid(torsor_presheaf(GROUPS["c3"]), cover_of_shape((3, 1)), budget=1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.partial == 1  # the first candidate, all identities, is a cocycle
    assert elapsed < 0.5, elapsed
    assert peak < 1_000_000, peak


def test_every_descent_capacity_error_reports_partial_progress():
    c2, cover = GROUPS["c2"], cover_of_shape((2, 1))
    # C2 over (2,1): normalization fixes the three diagonal entries of phi,
    # and phi[e0_0, e0_1], phi[e0_1, e0_0] are tried in that order.  Trials:
    # c0, c0 (the first cocycle, 2 trials), c1 (fails, 3), then c1, c0
    # (fails, 5 > 3): budget 3 stops the gluing search after one gluing
    with pytest.raises(CapacityError) as info:
        descent_groupoid(torsor_presheaf(c2), cover, budget=3)
    assert "object search" in str(info.value) and info.value.partial == 1
    # the whole gluing search takes 6 trials (then c1, c1, the second
    # cocycle), so budget 10 stops the morphism search instead: of the 8
    # cochains h: z0 -> z0, the 4 constant on {e0_0, e0_1} are morphisms,
    # and candidates 9 and 10, the first two h: z0 -> z1, are not
    with pytest.raises(CapacityError) as info:
        descent_groupoid(torsor_presheaf(c2), cover, budget=10)
    assert "morphism search" in str(info.value) and info.value.partial == 4
    assert len(descent_groupoid(_TwoObjectBG(c2), cover).morphism_data) == 8
    with pytest.raises(CapacityError) as info:
        descent_groupoid(_TwoObjectBG(c2), cover, budget=6)
    # a gluing is one entry, which normalization fixes: the object search
    # tries no value, and all 8 morphism candidates are morphisms
    assert info.value.partial == 6
    with pytest.raises(CapacityError) as info:
        check_stack_groupoids(constant_bg_presheaf(c2), cover_of_shape((2, 2), split=True),
                              budget=1)
    assert info.value.partial == 0
    with pytest.raises(CapacityError) as info:
        check_sheaf_opens(OpensMapPresheaf(("a", "b")), _two_point_space(), "PQ",
                          ("P", "Q"), budget=1)
    assert info.value.partial == 0
