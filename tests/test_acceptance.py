"""The acceptance gate: nine suites, each one test, all exact.

Every claim here is decided by exhaustive enumeration over a fixed finite
corpus — no sampling shortcuts except the seeded operator-word fuzzer in
the last suite, whose expected values come from an independent oracle.
The two expensive sweeps carry wall-clock ceilings; everything else is
small enough that a ceiling would be noise.
"""

import functools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import hornfill.groupoid
from hornfill.cat import (
    categories_isomorphic,
    duskin_nerve,
    fundamental_category,
    homotopy_category,
    nerve,
)
from hornfill.config import DEFAULT_LEVEL_CAP
from hornfill.corpus import (
    all_actions,
    all_categories,
    all_small_groups,
    all_two_categories,
    cover_of_shape,
    cover_shapes,
    idempotent_monoid_category,
    nerve_object_of_category,
    poset_category,
    punctured_cech_object,
    refine_cover,
)
from hornfill.descent import (
    ConstantPresheaf,
    DoubledBGPresheaf,
    DoubledGlobalPresheaf,
    MapPresheaf,
    cech_descent_skeleton,
    constant_bg_presheaf,
    descent_groupoid,
    refinement_invariance,
    torsor_presheaf,
    truncation_agreement_cech,
    truncation_agreement_groupoids,
    truncation_agreement_sets,
)
from hornfill.errors import InputError
from hornfill.groupoid import (
    ComparisonReport,
    FinMap,
    GroupAction,
    action_bar_object,
    cech_nerve,
    check_torsor,
    direct_product,
    equivalence_check,
    groupoid_cardinality,
    groupoid_of_groups,
    groups_isomorphic,
    is_groupoid_object,
    quotient_groupoid,
    stabilizer,
    torsor_comparison,
    trivial_group,
)
from hornfill.kan import classify, horn_fillers, horn_maps, is_isomorphism_edge
from hornfill.sset import (
    SimplexRef,
    normalize,
    standard_ref_of_vertices,
    standard_simplex,
    vertices_of_standard_ref,
)

from frozen_callables import callables_of

_CACHE = {}


def nerve_reports():
    """Nerve + full horn census at cap 4 for every corpus category, timed."""
    if "nerves" not in _CACHE:
        t0 = time.monotonic()
        out = {}
        for name, c in all_categories().items():
            res = nerve(c, dim_cap=4)
            out[name] = (c, res, classify(res.sset, 4))
        _CACHE["nerves"] = (out, time.monotonic() - t0)
    return _CACHE["nerves"]


def duskin_reports():
    """Duskin nerve + census at cap 4 for every corpus two-category."""
    if "duskins" not in _CACHE:
        out = {}
        for name, c2 in all_two_categories().items():
            dusk = duskin_nerve(c2, dim_cap=4)
            out[name] = (c2, dusk, classify(dusk.sset, 4))
        _CACHE["duskins"] = out
    return _CACHE["duskins"]


def _inner(verdicts):
    return [v for v in verdicts if 0 < v.k < v.n]


# ---------------------------------------------------------------------------
# 1. nerves of categories: unique inner fillers, Kan exactly for groupoids


def test_criterion_1_nerve_censuses_unique_inner_kan_iff_groupoid():
    reports, elapsed = nerve_reports()
    cats = {name: c for name, (c, _, _) in reports.items()}
    assert len(cats) >= 20
    assert sum(1 for c in cats.values() if c.is_groupoid()) >= 3
    assert sum(1 for c in cats.values() if not c.is_groupoid()) >= 3
    for name, c in cats.items():
        assert len(c.objects) <= 4 and len(c.mor) <= 12, name
    for name, (c, _, rep) in reports.items():
        assert rep.inspected_cap == 4, name
        for v in _inner(rep.verdicts):
            assert v.all_fill and v.all_unique, (name, v.n, v.k)
        assert rep.nerve_of_category, name
        assert rep.kan == c.is_groupoid(), name
        assert rep.nerve_of_groupoid == c.is_groupoid(), name
    assert elapsed < 60.0, f"census took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. both inverse constructions recover the category on the nose


def test_criterion_2_fundamental_and_homotopy_categories_round_trip():
    reports, _ = nerve_reports()
    for name, (c, res, _) in reports.items():
        tau = fundamental_category(res.sset)
        assert categories_isomorphic(tau.category, c) is not None, ("tau", name)
        h = homotopy_category(res.sset)
        assert categories_isomorphic(h.category, c) is not None, ("h", name)


# ---------------------------------------------------------------------------
# 3. two-categories: inner 2-fillers are counted by two-cells


def test_criterion_3_duskin_nerves_weak_kan_with_two_cell_filler_counts():
    reports = duskin_reports()
    corpus = ("two_group_c2", "two_group_c3", "split_c2_c2", "from_poset1", "from_bc2")
    assert len(corpus) >= 5
    # the smallest interesting member: one object, only the identity
    # one-cell, and a two-element group of two-cells on it
    small = reports["two_group_c2"][0]
    assert len(small.cat.objects) == 1
    assert len(small.one) == 1 and len(small.two) == 2

    for name in corpus:
        tc, dusk, rep = reports[name]
        assert rep.weak_kan, name

        def one_cell(ref):
            if ref.degs:
                return tc.cat.identity[dusk.model.elem_of_gen[ref.gen]]
            return dusk.model.elem_of_gen[ref.gen]

        for m in horn_maps(dusk.sset, 2, 1):
            f = one_cell(m.assignment["01"])
            g = one_cell(m.assignment["12"])
            comp = tc.cat.compose_table[(g, f)]
            expected = sum(
                len(tc.two_hom(comp, c))
                for c in tc.cat.hom(tc.cat.src(f), tc.cat.tgt(g))
            )
            assert len(horn_fillers(dusk.sset, 2, 1, m)) == expected, name
            if name == "two_group_c2":
                assert expected == len(tc.two) == 2

        parallel = any(
            len(tc.two_hom(f, g)) > 1
            for f in tc.one
            for g in tc.one
            if tc.cat.src(f) == tc.cat.src(g) and tc.cat.tgt(f) == tc.cat.tgt(g)
        )
        inner_unique = all(v.all_unique for v in _inner(rep.verdicts))
        assert inner_unique == (not parallel), name
    # both sides of the biconditional are inhabited
    assert {True, False} == {
        all(v.all_unique for v in _inner(reports[name][2].verdicts))
        for name in corpus
    }


# ---------------------------------------------------------------------------
# 4. a weak Kan complex is Kan exactly when every edge is invertible


def test_criterion_4_weak_kan_is_kan_iff_every_edge_is_invertible():
    members = []
    for name, (_, res, rep) in nerve_reports()[0].items():
        assert rep.weak_kan, name
        members.append((f"nerve {name}", res.sset, rep))
    for name, (_, dusk, rep) in duskin_reports().items():
        if rep.weak_kan:
            members.append((f"duskin {name}", dusk.sset, rep))
    assert len(members) >= 26
    seen = set()
    for name, x, rep in members:
        all_iso = all(
            is_isomorphism_edge(x, SimplexRef(g)).is_isomorphism
            for g in x.generators(1)
        )
        assert all_iso == rep.kan, name
        seen.add(rep.kan)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# 5. internal groupoid shapes: accepted exactly, rejected with witnesses


def test_criterion_5_cech_and_bar_objects_satisfy_groupoid_gluing():
    for prof in cover_shapes():
        cover = cover_of_shape(prof)
        pi = FinMap(cover.e, cover.b, dict(cover.pi))
        rep = is_groupoid_object(cech_nerve(pi, level_cap=3))
        assert rep.holds and rep.checked > 0, prof
    count = 0
    for gname, g in all_small_groups().items():
        for n in range(1, 5):
            for act in all_actions(g, n):
                rep = is_groupoid_object(action_bar_object(act, level_cap=3))
                assert rep.holds, (gname, n)
                count += 1
    assert count == 203

    broken = [
        (nerve_object_of_category(poset_category(1)),
         (2, (0, 1), (0, 2), "not surjective")),
        (nerve_object_of_category(idempotent_monoid_category()),
         (2, (0, 1), (0, 2), "not injective")),
        (punctured_cech_object(),
         (3, (0, 1, 2), (0, 3), "not surjective")),
    ]
    for obj, witness in broken:
        rep = is_groupoid_object(obj)
        assert not rep.holds
        assert rep.witness == witness


# ---------------------------------------------------------------------------
# 6. quotients: orbits, stabilizers, and the free-action equivalences


def test_criterion_6_orbit_stabilizer_and_free_action_equivalences():
    total = 0
    for gname, g in all_small_groups().items():
        for n in range(1, 5):
            for act in all_actions(g, n):
                total += 1
                q = quotient_groupoid(act)
                orbs = act.orbits()
                comps = q.components()
                assert sorted(map(tuple, map(sorted, comps.values()))) == sorted(
                    map(tuple, orbs)
                ), (gname, n)
                for x in act.carrier:
                    stab = stabilizer(act, x)
                    assert groups_isomorphic(stab, q.automorphism_group(x)) is not None
                free = all(stabilizer(act, x).order() == 1 for x in act.carrier)
                seen = set()
                injective = True
                for gg in g.elements:
                    for x in act.carrier:
                        pair = (act.act[(gg, x)], x)
                        if pair in seen:
                            injective = False
                        seen.add(pair)
                discrete = groupoid_of_groups(
                    {f"o{i}": trivial_group() for i in range(len(orbs))}
                )
                eq = equivalence_check(q, discrete)
                assert free == injective == eq.equivalent, (gname, n)
    assert total == 203


# ---------------------------------------------------------------------------
# 7. torsors: acceptance matches the fiberwise oracle, and accepted ones
#    reconstruct the cover's nerve


def _anchored_variants(act):
    orbs = act.orbits()
    reps = {o: o[0] for o in orbs}
    pi_orb = {x: reps[o] for o in orbs for x in o}
    # fibers are exactly the orbits
    yield GroupAction(act.group, act.carrier, act.act,
                      base=(set(reps.values()), pi_orb))
    # a single fiber
    yield GroupAction(act.group, act.carrier, act.act,
                      base=({"pt"}, {x: "pt" for x in act.carrier}))
    # two orbits over one base point: never fiberwise transitive
    if len(orbs) >= 2:
        pi_m = dict(pi_orb)
        for x in orbs[1]:
            pi_m[x] = reps[orbs[0]]
        yield GroupAction(act.group, act.carrier, act.act,
                          base=({reps[o] for o in orbs} - {reps[orbs[1]]}, pi_m))


def _torsor_oracle(a):
    """Fiber by fiber: nonempty, and one transporter for every point pair."""
    b_set, pi = a.base
    for b in b_set:
        fiber = [x for x in a.carrier if pi[x] == b]
        if not fiber:
            return False
        for x in fiber:
            for y in fiber:
                if sum(1 for g in a.group.elements if a.act[(g, x)] == y) != 1:
                    return False
    return True


def test_criterion_7_torsor_acceptance_and_reconstruction():
    anchored = accepted = 0
    for gname, g in all_small_groups().items():
        for n in range(1, 5):
            for act in all_actions(g, n):
                for a in _anchored_variants(act):
                    rep = check_torsor(a)
                    assert rep.is_torsor == _torsor_oracle(a), (gname, n)
                    anchored += 1
                    if rep.is_torsor:
                        comp = torsor_comparison(a, level_cap=3)
                        assert comp.commutes and comp.is_iso, (gname, n)
                        assert set(comp.levelwise_bijective) == {0, 1, 2, 3}
                        accepted += 1
    assert anchored == 572
    assert accepted == 38


# the per-element comparison that the comparison on positions replaced


def _oracle_torsor_comparison(action, level_cap=DEFAULT_LEVEL_CAP):
    """The canonical map from the bar construction to the Cech nerve of the
    anchor: (g_1 ... g_n, x) |-> (x, g_1 x, g_2 g_1 x, ...).  Reports whether
    it commutes with all structure maps and is a levelwise bijection."""
    if action.base is None:
        raise InputError("comparison needs an anchored action")
    bar = action_bar_object(action, level_cap)
    b_set, pi = action.base
    cech = cech_nerve(FinMap(action.carrier, b_set, pi), level_cap)

    def cmp_n(n, z):
        gs, x = z
        out = [x]
        for g in gs:
            out.append(action.act[(g, out[-1])])
        return tuple(out)

    bar_face, bar_deg = callables_of(bar.levels, bar.faces, bar.degs)
    cech_face, cech_deg = callables_of(cech.levels, cech.faces, cech.degs)
    commutes = True
    for n in range(1, level_cap + 1):
        for z in bar.levels[n]:
            for i in range(n + 1):
                if cmp_n(n - 1, bar_face(n, i, z)) != cech_face(n, i, cmp_n(n, z)):
                    commutes = False
    for n in range(level_cap):
        for z in bar.levels[n]:
            for i in range(n + 1):
                if cmp_n(n + 1, bar_deg(n, i, z)) != cech_deg(n, i, cmp_n(n, z)):
                    commutes = False
    levelwise = {}
    for n in range(level_cap + 1):
        images = [cmp_n(n, z) for z in bar.levels[n]]
        levelwise[n] = (
            len(images) == len(set(images)) and set(images) == set(cech.levels[n])
        )
    return ComparisonReport(commutes, levelwise, commutes and all(levelwise.values()))


def test_torsor_comparison_on_positions_matches_the_per_element_oracle():
    reports = Counter()
    for g in all_small_groups().values():
        for n in range(1, 5):
            for act in all_actions(g, n):
                for a in _anchored_variants(act):
                    rep = torsor_comparison(a, level_cap=3)
                    assert rep == _oracle_torsor_comparison(a, level_cap=3)
                    reports[rep.commutes, rep.is_iso] += 1
    # every variant commutes; only the torsors are isomorphisms
    assert reports == {(True, False): 572 - 38, (True, True): 38}


def test_torsor_comparison_builds_no_level_table(monkeypatch):
    variants = [a for g in all_small_groups().values() for n in range(1, 5)
                for act in all_actions(g, n) for a in _anchored_variants(act)]
    want = [_oracle_torsor_comparison(a, level_cap=3) for a in variants]

    def refuse(*args, **kwargs):
        raise AssertionError("torsor_comparison built a level table")

    monkeypatch.setattr(hornfill.groupoid, "action_bar_object", refuse)
    monkeypatch.setattr(hornfill.groupoid, "cech_nerve", refuse)
    assert [torsor_comparison(a, level_cap=3) for a in variants] == want
    assert len(want) == 572


# ---------------------------------------------------------------------------
# 8. descent for covers: one torsor class, refinement invariance, and
#    depth truncations that already stabilize


def test_criterion_8_cover_descent_census_refinements_and_truncations():
    groups = all_small_groups()
    shapes = cover_shapes(max_parts=3)
    assert len(shapes) == 15
    t0 = time.monotonic()

    checked = 0
    for prof in shapes:
        cover = cover_of_shape(prof)
        for gname, g in groups.items():
            rep = cech_descent_skeleton(g, cover)
            assert rep.equivalent_to_bg_power, (prof, gname)
            assert rep.components == 1
            assert rep.stabilizer_fiber_constant
            assert rep.stabilizer_order == g.order() ** len(cover.b)
            assert rep.cardinality == Fraction(1, g.order() ** len(cover.b))
            assert rep.cardinality == rep.expected_cardinality
            checked += 1
    assert checked == 120

    # cross-check the census against materialized descent groupoids
    for prof in [(1,), (2,), (2, 1)]:
        cover = cover_of_shape(prof)
        for gname in ("c2", "c3"):
            g = groups[gname]
            skel = cech_descent_skeleton(g, cover)
            desc = descent_groupoid(torsor_presheaf(g), cover)
            assert len(desc.object_data) == skel.cocycle_count
            assert len(desc.groupoid.components()) == skel.components
            assert groupoid_cardinality(desc.groupoid) == skel.cardinality
            # one object with automorphism group G^|B|
            power = functools.reduce(direct_product, [g] * len(cover.b))
            bg_power = groupoid_of_groups({"*": power})
            assert equivalence_check(desc.groupoid, bg_power).equivalent

    pairs = 0
    for prof in shapes:
        if sum(prof) >= 5:
            continue
        cover = cover_of_shape(prof)
        extras = [{"b0": 1}]
        if sum(prof) + len(prof) <= 5:
            extras.append({b: 1 for b in cover.b})
        for extra in extras:
            refined, r = refine_cover(cover, extra)
            for gname, g in groups.items():
                rep = refinement_invariance(g, cover, refined, r)
                assert rep.restriction_is_equivalence, (prof, extra, gname)
                assert rep.skeletons_agree, (prof, extra, gname)
                pairs += 1
    assert pairs == 128

    for prof in shapes:
        cover = cover_of_shape(prof)
        for ps in (
            MapPresheaf(("v0", "v1")),
            ConstantPresheaf(("c0", "c1")),
            DoubledGlobalPresheaf(("c0", "c1"), cover.b),
        ):
            assert truncation_agreement_sets(ps, cover).agree, prof
        for gname, g in groups.items():
            assert truncation_agreement_cech(g, cover).agree, (prof, gname)

    for prof in [(1,), (2,), (1, 1), (2, 1)]:
        cover = cover_of_shape(prof)
        for gname in ("c1", "c2", "c3"):
            g = groups[gname]
            for ps in (
                torsor_presheaf(g),
                constant_bg_presheaf(g),
                DoubledBGPresheaf(g, cover.b),
            ):
                assert truncation_agreement_groupoids(ps, cover).agree, (prof, gname)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"descent suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 9. the operator calculus agrees with monotone-map composition


def _word_on_vertices(word, verts):
    out = list(verts)
    for tok in reversed(list(word)):
        kind, idx = tok[0], int(tok[1:])
        if kind == "d":
            del out[idx]
        else:
            out.insert(idx, out[idx])
    return tuple(out)


def test_criterion_9_operator_words_fuzzed_against_monotone_maps():
    rng = random.Random(67_613_173)
    simplices = {n: standard_simplex(n, dim_cap=5) for n in range(6)}
    for _ in range(10_000):
        n = rng.randrange(6)
        word = []
        dim = n
        for _ in range(rng.randrange(1, 9)):
            if dim >= 1 and rng.random() < 0.5:
                i = rng.randrange(dim + 1)
                word.append(f"d{i}")
                dim -= 1
            else:
                j = rng.randrange(dim + 1)
                word.append(f"s{j}")
                dim += 1
        word.reverse()
        top = "".join(str(v) for v in range(n + 1))
        ref = normalize(simplices[n], top, word)
        expected = _word_on_vertices(word, range(n + 1))
        assert vertices_of_standard_ref(simplices[n], ref) == expected
        assert standard_ref_of_vertices(expected) == ref
    for n in range(6):
        for m in range(6):
            assert simplices[n].count(m) == math.comb(n + m + 1, m + 1)
