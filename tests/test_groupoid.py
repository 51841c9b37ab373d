"""Groups, actions, groupoids, and set-valued simplicial objects."""

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hornfill
from hornfill import sset

from hornfill.corpus import (
    all_actions,
    all_small_groups,
    cover_of_shape,
    cover_shapes,
    free_transitive_action,
    idempotent_monoid_category,
    nerve_object_of_category,
    poset_category,
    punctured_cech_object,
    walking_retraction_category,
    swap_action,
    trivial_action,
)
from hornfill.errors import CapacityError, InputError, ValidationError
from hornfill.groupoid import (
    EquivalenceReport,
    FinMap,
    GroupAction,
    SimplicialObject,
    action_bar_object,
    cech_nerve,
    check_torsor,
    cyclic_group,
    direct_product,
    equivalence_check,
    groupoid_cardinality,
    groupoid_of_groups,
    groups_isomorphic,
    is_groupoid_object,
    quotient_groupoid,
    skeleton,
    stabilizer,
    symmetric_group,
    torsor_comparison,
    trivial_group,
)

from frozen_callables import (
    bar_callables,
    callables_of,
    cech_callables,
    in_order_of,
    nerve_callables,
    punctured_callables,
    simplicial_object,
)

GROUPS = all_small_groups()


def test_small_group_census():
    assert sorted(GROUPS) == ["c1", "c2", "c3", "c4", "c5", "c6", "s3", "v4"]
    assert [GROUPS[n].order() for n in sorted(GROUPS)] == [1, 2, 3, 4, 5, 6, 6, 4]
    abelian = lambda g: all(g.mul[(a, b)] == g.mul[(b, a)] for a in g.elements for b in g.elements)
    assert not abelian(GROUPS["s3"])
    assert all(abelian(GROUPS[n]) for n in GROUPS if n != "s3")


def test_symmetric_group_composes_right_to_left():
    s3 = symmetric_group(3)
    # permutations as digit strings: value at position i is the image of i
    assert s3.mul[("120", "021")] == "102"  # first swap 1,2 then rotate
    assert s3.element_order("120") == 3
    assert s3.element_order("021") == 2


def test_group_isomorphism_classifier():
    assert groups_isomorphic(GROUPS["c6"], direct_product(GROUPS["c2"], GROUPS["c3"])) is not None
    assert groups_isomorphic(GROUPS["c4"], GROUPS["v4"]) is None
    assert groups_isomorphic(GROUPS["s3"], GROUPS["c6"]) is None
    assert groups_isomorphic(GROUPS["s3"], symmetric_group(3)) is not None


def test_group_isomorphism_budget_reports_generator_images_fixed():
    # s3 has two generators: the budget runs out choosing the second image
    with pytest.raises(CapacityError) as info:
        groups_isomorphic(GROUPS["s3"], symmetric_group(3), budget=1)
    assert info.value.partial == 1


# one action per homomorphism into the symmetric group of the carrier
HOM_COUNTS = {
    ("c2", 2): 2,
    ("c2", 3): 4,
    ("c2", 4): 10,
    ("c3", 3): 3,
    ("c3", 4): 9,
    ("c4", 4): 16,
    ("v4", 4): 52,
    ("c6", 3): 6,
    ("s3", 3): 10,
    ("s3", 4): 34,
}


def test_action_enumeration_matches_hom_counts():
    for (gname, n), expected in HOM_COUNTS.items():
        acts = all_actions(GROUPS[gname], n)
        assert len(acts) == expected, (gname, n)
        for a in acts:
            a.validate()


def test_action_validation_rejects_non_actions():
    g = cyclic_group(2)
    with pytest.raises(ValidationError):
        GroupAction(
            g,
            ("p", "q"),
            {("c0", "p"): "p", ("c0", "q"): "q", ("c1", "p"): "q", ("c1", "q"): "q"},
        )


def test_orbit_stabilizer_product_is_the_group_order():
    for gname, g in GROUPS.items():
        for n in (1, 2, 3):
            for act in all_actions(g, n):
                for x in act.carrier:
                    assert len(act.orbit(x)) * stabilizer(act, x).order() == g.order()


def test_quotient_groupoid_components_are_orbits():
    act = swap_action()
    q = quotient_groupoid(act)
    comps = q.components()
    assert len(comps) == 1
    assert groupoid_cardinality(q) == Fraction(1, 1)  # 2 points / C2, free

    triv = trivial_action(cyclic_group(3), 2)
    q2 = quotient_groupoid(triv)
    assert len(q2.components()) == 2
    assert groupoid_cardinality(q2) == Fraction(2, 3)


def test_quotient_cardinality_is_points_over_group_order():
    for gname, g in GROUPS.items():
        for n in (1, 2, 3):
            for act in all_actions(g, n):
                q = quotient_groupoid(act)
                assert groupoid_cardinality(q) == Fraction(n, g.order()), gname


def test_quotient_automorphisms_are_stabilizers():
    s3 = GROUPS["s3"]
    for act in all_actions(s3, 3):
        q = quotient_groupoid(act)
        for x in act.carrier:
            assert groups_isomorphic(q.automorphism_group(x), stabilizer(act, x)) is not None


def test_skeleton_and_equivalence_check():
    g = groupoid_of_groups({"a": cyclic_group(2), "b": trivial_group()})
    sk = skeleton(g)
    assert set(sk.reps()) == {"a", "b"}
    h = groupoid_of_groups({"x": cyclic_group(2), "y": trivial_group()})
    assert equivalence_check(g, h).equivalent
    # same component count, different automorphisms
    h2 = groupoid_of_groups({"x": cyclic_group(2), "y": cyclic_group(2)})
    rep = equivalence_check(g, h2)
    assert not rep.equivalent and rep.reason
    # different component counts
    assert not equivalence_check(g, groupoid_of_groups({"x": cyclic_group(2)})).equivalent


def _backtracking_equivalence(g1, g2):
    """The old equivalence check, matching components by backtracking."""
    s1, s2 = skeleton(g1), skeleton(g2)
    reps1, reps2 = s1.reps(), s2.reps()
    if len(reps1) != len(reps2):
        return EquivalenceReport(
            False, {}, f"component counts differ: {len(reps1)} vs {len(reps2)}"
        )
    compatible = {
        r1: [r2 for r2 in reps2 if groups_isomorphic(s1.groups[r1], s2.groups[r2]) is not None]
        for r1 in reps1
    }
    matching = {}
    used = set()

    def rec(i):
        if i == len(reps1):
            return True
        r1 = reps1[i]
        for r2 in compatible[r1]:
            if r2 in used:
                continue
            matching[r1] = r2
            used.add(r2)
            if rec(i + 1):
                return True
            used.discard(r2)
            del matching[r1]
        return False

    if rec(0):
        return EquivalenceReport(True, dict(matching), "components matched")
    return EquivalenceReport(False, {}, "no automorphism-compatible component matching")


def test_first_fit_matching_gives_the_backtracking_report():
    # every disjoint union of up to three of C2, C4 and V4 (C4 and V4 have
    # one order but are not isomorphic), against every other
    groups = {"c2": cyclic_group(2), "c4": cyclic_group(4), "v4": GROUPS["v4"]}
    gpds = [
        groupoid_of_groups({f"{k}{name}": groups[name] for k, name in enumerate(names)})
        for n in (1, 2, 3) for names in itertools.product(sorted(groups), repeat=n)
    ]
    outcomes = set()
    for g1 in gpds:
        for g2 in gpds:
            report = equivalence_check(g1, g2)
            assert report == _backtracking_equivalence(g1, g2)
            outcomes.add(report.reason.split(":")[0])
    assert outcomes == {"component counts differ", "components matched",
                        "no automorphism-compatible component matching"}


def test_cech_nerve_levels_count_fiber_powers():
    cover = cover_of_shape((2, 1))
    pi = FinMap(cover.e, cover.b, dict(cover.pi))
    obj = cech_nerve(pi, level_cap=3)
    assert [len(obj.levels[n]) for n in range(4)] == [3, 5, 9, 17]
    obj.validate()


def test_cech_nerves_are_groupoid_objects():
    for prof in cover_shapes():
        cover = cover_of_shape(prof)
        pi = FinMap(cover.e, cover.b, dict(cover.pi))
        rep = is_groupoid_object(cech_nerve(pi, level_cap=3))
        assert rep.holds, prof
        assert rep.checked > 0


def test_action_bar_objects_are_groupoid_objects():
    for gname in ("c2", "c3", "s3"):
        g = GROUPS[gname]
        for act in all_actions(g, 2):
            rep = is_groupoid_object(action_bar_object(act, level_cap=3))
            assert rep.holds, gname


def test_broken_simplicial_objects_rejected_with_exact_witnesses():
    bad_nerve = nerve_object_of_category(poset_category(1))
    rep = is_groupoid_object(bad_nerve)
    assert not rep.holds
    assert rep.witness == (2, (0, 1), (0, 2), "not surjective")

    idem = nerve_object_of_category(idempotent_monoid_category())
    rep2 = is_groupoid_object(idem)
    assert not rep2.holds
    assert rep2.witness == (2, (0, 1), (0, 2), "not injective")

    rep3 = is_groupoid_object(punctured_cech_object())
    assert not rep3.holds
    assert rep3.witness == (3, (0, 1, 2), (0, 3), "not surjective")


def test_torsor_check_accepts_translation_action():
    for gname in ("c2", "c4", "s3"):
        g = GROUPS[gname]
        base = free_transitive_action(g)
        act = GroupAction(
            g,
            base.carrier,
            base.act,
            base=({"pt"}, {x: "pt" for x in base.carrier}),
        )
        rep = check_torsor(act)
        assert rep.is_torsor and rep.trivializable
        assert set(rep.section) == {"pt"}
        comp = torsor_comparison(act)
        assert comp.commutes and comp.is_iso


def test_torsor_check_rejects_trivial_action():
    g = cyclic_group(2)
    act = trivial_action(g, 2)
    anchored = GroupAction(
        g, act.carrier, act.act, base=({"pt"}, {x: "pt" for x in act.carrier})
    )
    rep = check_torsor(anchored)
    assert rep.pi_surjective and not rep.act_pr_bijective
    assert not rep.is_torsor
    assert not torsor_comparison(anchored).is_iso


def test_torsor_comparison_checks_the_anchor_before_the_level_cap():
    act = swap_action()
    with pytest.raises(InputError, match="^comparison needs an anchored action$"):
        torsor_comparison(act, level_cap=-1)
    anchored = GroupAction(act.group, act.carrier, act.act,
                           base=({"pt"}, {x: "pt" for x in act.carrier}))
    for cap in (-1, 2.0, "3", None, True):
        with pytest.raises(InputError, match="level_cap must be a non-negative integer"):
            torsor_comparison(anchored, level_cap=cap)
    assert torsor_comparison(anchored, level_cap=0).levelwise_bijective == {0: True}


def test_torsor_check_needs_an_anchor():
    with pytest.raises(InputError):
        check_torsor(swap_action())


def test_anchored_action_must_preserve_fibers():
    g = cyclic_group(2)
    with pytest.raises(ValidationError):
        GroupAction(
            g,
            ("p", "q"),
            {("c0", "p"): "p", ("c0", "q"): "q", ("c1", "p"): "q", ("c1", "q"): "p"},
            base=({"u", "v"}, {"p": "u", "q": "v"}),
        )


def test_finmap_validation():
    FinMap(("a", "b"), ("x",), {"a": "x", "b": "x"})
    with pytest.raises(ValidationError):
        FinMap(("a", "b"), ("x",), {"a": "x"})
    with pytest.raises(ValidationError):
        FinMap(("a",), ("x",), {"a": "y"})


# -- the table core against the callable-based route it replaced -------------


def _oracle_validate(level_cap, levels, face, deg):
    """The identity suite evaluated through the callables, element by element."""
    for n, level in enumerate(levels):
        if len(set(level)) != len(level):
            raise ValidationError(f"duplicate elements at level {n}")
    for n in range(1, level_cap + 1):
        prev = set(levels[n - 1])
        for x in levels[n]:
            for i in range(n + 1):
                if face(n, i, x) not in prev:
                    raise ValidationError(f"face d_{i} leaves level {n - 1}")
    for n in range(level_cap):
        nxt = set(levels[n + 1])
        for x in levels[n]:
            for i in range(n + 1):
                if deg(n, i, x) not in nxt:
                    raise ValidationError(f"degeneracy s_{i} leaves level {n + 1}")
    for n in range(2, level_cap + 1):
        for x in levels[n]:
            for j in range(n + 1):
                for i in range(j):
                    if face(n - 1, i, face(n, j, x)) != face(n - 1, j - 1, face(n, i, x)):
                        raise ValidationError(f"face identity fails at level {n}")
    for n in range(level_cap):
        for x in levels[n]:
            for j in range(n + 1):
                sx = deg(n, j, x)
                if face(n + 1, j, sx) != x or face(n + 1, j + 1, sx) != x:
                    raise ValidationError(f"unit identity fails at level {n}")
                for i in range(n + 2):
                    if i in (j, j + 1):
                        continue
                    got = face(n + 1, i, sx)
                    if i < j:
                        want = deg(n - 1, j - 1, face(n, i, x))
                    else:
                        want = deg(n - 1, j, face(n, i - 1, x))
                    if got != want:
                        raise ValidationError(f"mixed identity fails at level {n}")
            if n + 2 <= level_cap:
                for j in range(n + 1):
                    for i in range(j + 1):
                        if deg(n + 1, i, deg(n, j, x)) != deg(n + 1, j + 1, deg(n, i, x)):
                            raise ValidationError(f"degeneracy swap fails at level {n}")


def _oracle_restrict(face, n, subset, x):
    cur, m = x, n
    for v in sorted(set(range(n + 1)) - set(subset), reverse=True):
        cur = face(m, v, cur)
        m -= 1
    return cur


def _oracle_is_groupoid_object(level_cap, levels, face):
    """(holds, witness, checked) with every restriction run through `face`."""
    if level_cap < 3:
        raise InputError("groupoid-object check needs level_cap >= 3")
    checked = 0
    for n in range(2, level_cap + 1):
        for m in range(n + 1):
            rest = [v for v in range(n + 1) if v != m]
            for bits in itertools.product((0, 1), repeat=len(rest)):
                a = [v for v, b in zip(rest, bits) if b == 0]
                bb = [v for v, b in zip(rest, bits) if b == 1]
                if not a or not bb:
                    continue
                s = tuple(sorted(a + [m]))
                s2 = tuple(sorted(bb + [m]))
                if s > s2:
                    continue
                checked += 1
                pm, pm2 = s.index(m), s2.index(m)
                pairs = [
                    (_oracle_restrict(face, n, s, x), _oracle_restrict(face, n, s2, x))
                    for x in levels[n]
                ]
                rhs = set()
                for u in levels[len(s) - 1]:
                    for u2 in levels[len(s2) - 1]:
                        if _oracle_restrict(face, len(s) - 1, (pm,), u) == _oracle_restrict(
                            face, len(s2) - 1, (pm2,), u2
                        ):
                            rhs.add((u, u2))
                if len(pairs) != len(set(pairs)):
                    return False, (n, s, s2, "not injective"), checked
                if set(pairs) != rhs:
                    return False, (n, s, s2, "not surjective"), checked
    return True, (), checked


def _gluing_objects():
    """(name, build, oracle): each object with the frozen callables its
    producer used to hand over, as (level_cap, levels, face, deg)."""
    for prof in cover_shapes():
        cover = cover_of_shape(prof)
        pi = FinMap(cover.e, cover.b, dict(cover.pi))
        yield (f"cech {prof}", lambda pi=pi: cech_nerve(pi, level_cap=3),
               lambda pi=pi: (3, *cech_callables(pi, 3)))
    for gname, g in GROUPS.items():
        for n in (1, 2, 3):
            for i, act in enumerate(all_actions(g, n)):
                yield (f"bar {gname} {n} {i}", lambda act=act: action_bar_object(act, level_cap=3),
                       lambda act=act: (3, *bar_callables(act, 3)))
    for name, c in (("poset1", poset_category(1)), ("idempotent", idempotent_monoid_category())):
        yield (f"{name} nerve", lambda c=c: nerve_object_of_category(c),
               lambda c=c: (3, *nerve_callables(c, 3)[:3]))
    yield "punctured cech", punctured_cech_object, lambda: (3, *punctured_callables())


def test_one_simplicial_object_class():
    assert SimplicialObject is sset.SimplicialObject is hornfill.SimplicialObject
    assert issubclass(sset.LevelModel, SimplicialObject)
    assert "restrict" in vars(SimplicialObject)


def test_gluing_matches_the_callable_route_on_every_object():
    count = 0
    for name, build, oracle in _gluing_objects():
        obj, (level_cap, levels, face, deg) = build(), oracle()
        _oracle_validate(level_cap, levels, face, deg)
        rep = is_groupoid_object(obj)
        assert (rep.holds, rep.witness, rep.checked) == _oracle_is_groupoid_object(
            level_cap, levels, face
        ), name
        count += 1
    assert count == 18 + sum(len(all_actions(g, n)) for g in GROUPS.values() for n in (1, 2, 3)) + 3


def _report(rep):
    return rep.holds, rep.witness, rep.checked


_TWO_POINTS = FinMap(("a", "b"), ("*",), {"a": "*", "b": "*"})


@dataclass(frozen=True)
class _Copy:
    """A second top-level element with the faces of `of`."""
    of: object
    k: int


def _top_mutated(obj, remove, copy):
    """`obj` with the top-level elements at the positions `remove` taken out
    and those at `copy` given a copy with the same faces.  No degeneracy may
    hit them, so the simplicial identities still hold."""
    cap = obj.level_cap
    top = obj.levels[cap]
    kept = [p for p in range(len(top)) if p not in set(remove)]
    renumber = {p: q for q, p in enumerate(kept)}
    level = [top[p] for p in kept] + [_Copy(top[p], k) for k, p in enumerate(copy)]
    faces = [[row[p] for p in kept + list(copy)] for row in obj.faces[cap]]
    degs = [[renumber[q] for q in row] for row in obj.degs[cap - 1]]
    return SimplicialObject(cap, obj.levels[:cap] + [level], obj.faces[:cap] + [faces],
                            obj.degs[:cap - 1] + [degs])


def _oracle_top_mutated(oracle, removed, copied):
    """The oracle's (level_cap, levels, face) for `_top_mutated`, with the
    removed and copied top-level elements given by value."""
    level_cap, levels, face, _ = oracle
    levels = list(levels)
    levels[level_cap] = [x for x in levels[level_cap] if x not in removed] + [
        _Copy(x, k) for k, x in enumerate(copied)
    ]

    def mutated_face(n, i, x):
        return face(n, i, x.of if isinstance(x, _Copy) else x)

    return level_cap, levels, mutated_face


def _free_top(obj):
    """The top-level positions that no degeneracy hits."""
    hit = {q for row in obj.degs[obj.level_cap - 1] for q in row}
    return [p for p in range(len(obj.levels[obj.level_cap])) if p not in hit]


def test_gluing_matches_the_callable_route_above_level_3():
    # the spine conditions at n >= 4 only matter above cap 3
    cases = []
    for prof, cap in (((2, 1), 4), ((3,), 4), ((2,), 5)):
        cover = cover_of_shape(prof)
        pi = FinMap(cover.e, cover.b, dict(cover.pi))
        cases.append((f"cech {prof}", cech_nerve(pi, level_cap=cap), (cap, *cech_callables(pi, cap))))
    for gname in ("c2", "c3"):
        for n in (1, 2):
            for i, act in enumerate(all_actions(GROUPS[gname], n)):
                cases.append((f"bar {gname} {n} {i}", action_bar_object(act, level_cap=4),
                              (4, *bar_callables(act, 4))))
    for name, obj, (level_cap, levels, face, deg) in cases:
        rep = is_groupoid_object(obj)
        assert _report(rep) == _oracle_is_groupoid_object(level_cap, levels, face), name
        assert rep.holds and rep.level_cap == level_cap, name
    two = cech_nerve(_TWO_POINTS, level_cap=5)
    assert [is_groupoid_object(two, level_cap=cap).checked for cap in (3, 4, 5)] == [15, 50, 140]


def test_a_level_4_puncture_fails_only_at_level_4():
    base = cech_nerve(_TWO_POINTS, level_cap=4)
    obj = _top_mutated(base, [base.position[4][("a", "b", "a", "b", "a")]], [])
    levels, face, _ = cech_callables(_TWO_POINTS, 4)
    levels[4] = [x for x in levels[4] if x != ("a", "b", "a", "b", "a")]
    rep = is_groupoid_object(obj)
    assert _report(rep) == _oracle_is_groupoid_object(4, levels, face)
    assert _report(rep) == (False, (4, (0, 1, 2, 3), (0, 4), "not surjective"), 16)
    below = is_groupoid_object(obj, level_cap=3)
    assert _report(below) == _oracle_is_groupoid_object(3, levels, face) == (True, (), 15)
    assert below.level_cap == 3


@functools.cache
def _mutable_objects():
    """(name, object, oracle) for the objects of `_gluing_objects()` with a
    top-level element that no degeneracy hits."""
    built = ((name, build(), oracle()) for name, build, oracle in _gluing_objects())
    return tuple(case for case in built if _free_top(case[1]))


@st.composite
def _top_mutations(draw):
    """An object of `_gluing_objects()` and its oracle with a non-empty set
    of top-level elements, hit by no degeneracy, each removed or copied."""
    name, obj, oracle = draw(st.sampled_from(_mutable_objects()))
    cap, free = obj.level_cap, _free_top(obj)
    picked = draw(st.lists(st.sampled_from(free), min_size=1, max_size=4, unique=True))
    copied = draw(st.lists(st.sampled_from(picked), unique=True))
    removed = [p for p in picked if p not in copied]
    top = obj.levels[cap]
    return (name, _top_mutated(obj, removed, copied),
            _oracle_top_mutated(oracle, {top[p] for p in removed}, [top[p] for p in copied]))


@settings(max_examples=100, deadline=None)
@given(_top_mutations())
def test_top_level_mutations_match_the_oracle(case):
    name, obj, oracle = case
    assert _report(is_groupoid_object(obj)) == _oracle_is_groupoid_object(*oracle), name


def test_a_copied_top_element_is_not_injective():
    base = cech_nerve(_TWO_POINTS, level_cap=3)
    x = ("a", "b", "a", "b")
    obj = _top_mutated(base, [], [base.position[3][x]])
    oracle = _oracle_top_mutated((3, *cech_callables(_TWO_POINTS, 3)), set(), [x])
    want = (False, (3, (0, 1, 2), (0, 3), "not injective"), 4)
    assert _report(is_groupoid_object(obj)) == _oracle_is_groupoid_object(*oracle) == want


def test_face_degeneracy_and_restriction_are_table_lookups():
    for name, build, oracle in _gluing_objects():
        obj, (level_cap, levels, face, deg) = build(), oracle()
        obj_face, obj_deg = callables_of(obj.levels, obj.faces, obj.degs)
        # a nerve's level model holds its levels in its set's order
        if isinstance(obj, sset.LevelModel):
            assert [sorted(level) for level in obj.levels] == [sorted(level) for level in levels]
        else:
            assert obj.levels == [tuple(level) for level in levels], name
        for n in range(level_cap + 1):
            for x in levels[n]:
                for i in range(n + 1):
                    if n:
                        assert obj_face(n, i, x) == face(n, i, x)
                    if n < level_cap:
                        assert obj_deg(n, i, x) == deg(n, i, x)
                for subset in itertools.chain.from_iterable(
                    itertools.combinations(range(n + 1), k) for k in range(1, n + 2)
                ):
                    assert obj.restrict(n, subset, x) == _oracle_restrict(face, n, subset, x)


def test_rows_match_the_frozen_callables():
    # the rows each producer emits, against op_table run on the callables
    # it used to hand over; a nerve's model renumbers its rows, so the
    # oracle's rows are renumbered the same way
    count = 0
    for name, build, oracle in _gluing_objects():
        obj, (level_cap, levels, face, deg) = build(), oracle()
        want = simplicial_object(level_cap, levels, face, deg, check=False)
        if isinstance(obj, sset.LevelModel):
            assert (obj.levels, obj.faces, obj.degs) == in_order_of(obj, want), name
        else:
            assert (obj.levels, obj.faces, obj.degs) == (want.levels, want.faces, want.degs), name
        count += 1
    assert count == 18 + sum(len(all_actions(g, n)) for g in GROUPS.values() for n in (1, 2, 3)) + 3


def test_table_checker_names_the_failing_element():
    base = cech_nerve(FinMap(("a", "b"), ("*",), {"a": "*", "b": "*"}), level_cap=2)

    def face(n, i, x):
        if x == ("a", "b", "b") and i == 0:
            return ("a", "a")
        return x[:i] + x[i + 1:]

    with pytest.raises(ValidationError, match=r"\('a', 'b', 'b'\)"):
        simplicial_object(2, base.levels, face, lambda n, i, x: x[: i + 1] + x[i:])
    with pytest.raises(ValidationError, match="duplicate"):
        SimplicialObject(0, [("a", "a")], [()], ())
    with pytest.raises(ValidationError, match=r"^d_0 of \('a', 'a'\) leaves level 0$"):
        SimplicialObject(1, [("a",), (("a", "a"),)], [(), [[1], [0]]], [[0]])
    with pytest.raises(InputError):
        base.restrict(2, (0, 3), ("a", "b", "b"))


def test_rows_of_the_wrong_shape_are_refused():
    base = cech_nerve(FinMap(("a", "b"), ("*",), {"a": "*", "b": "*"}), level_cap=2)

    def build(n, kind, i, row):
        faces, degs = [list(rows) for rows in base.faces], [list(rows) for rows in base.degs]
        (faces if kind == "d" else degs)[n][i] = row
        return SimplicialObject(2, base.levels, faces, degs)

    d1 = base.faces[2][1]
    cases = [
        # a short row names the first element it has no entry for
        ((2, "d", 1, d1[:-1]), r"^d_1 has no entry for \('b', 'b', 'b'\) at level 2$"),
        ((2, "d", 1, d1 + [0]), r"^d_1 has 9 entries for the 8 elements of level 2$"),
        ((2, "d", 1, d1[:3] + [4] + d1[4:]), r"^d_1 of \('a', 'b', 'b'\) leaves level 1$"),
        ((2, "d", 1, d1[:3] + [-1] + d1[4:]), r"^d_1 of \('a', 'b', 'b'\) leaves level 1$"),
        ((2, "d", 1, d1[:3] + [1.0] + d1[4:]), r"^d_1 of \('a', 'b', 'b'\) leaves level 1$"),
        ((1, "s", 0, base.degs[1][0][:3] + [8]), r"^s_0 of \('b', 'b'\) leaves level 2$"),
        ((0, "s", 0, [None, 3]), r"^s_0 of \('a',\) leaves level 1$"),
    ]
    for args, message in cases:
        with pytest.raises(ValidationError, match=message):
            build(*args)
    with pytest.raises(ValidationError, match=r"^level 2 has 2 d rows, expected 3$"):
        SimplicialObject(2, base.levels, base.faces[:2] + [base.faces[2][:2]], base.degs)
    with pytest.raises(ValidationError, match=r"^level 0 has 1 d rows, expected 0$"):
        SimplicialObject(0, base.levels, [[[0, 1]]], ())


def test_lookups_outside_the_object_are_input_errors():
    two = cech_nerve(FinMap(("a", "b"), ("*",), {"a": "*", "b": "*"}), level_cap=3)
    bad = [
        lambda: two.restrict(3, (0, 1), ("a", "a")),  # not an element of level 3
        lambda: two.restriction_table(4, (0,)),
        lambda: two.restrict(2, (0, 3), ("a", "b", "b")),
    ]
    for lookup in bad:
        with pytest.raises(InputError):
            lookup()
    assert two.restrict(3, (0, 3), ("a", "b", "a", "b")) == ("a", "b")


def test_bad_level_caps_are_input_errors():
    pi = FinMap(("a", "b"), ("*",), {"a": "*", "b": "*"})
    for cap in (-1, 2.0, "3", None, True):
        with pytest.raises(InputError, match="level_cap must be a non-negative integer"):
            cech_nerve(pi, level_cap=cap)
        with pytest.raises(InputError, match="level_cap must be a non-negative integer"):
            action_bar_object(swap_action(), level_cap=cap)
        with pytest.raises(InputError, match="level_cap must be a non-negative integer"):
            SimplicialObject(cap, [], [], [])
    two = cech_nerve(pi, level_cap=3)
    for cap in (-1, 2.0, "3", True):
        with pytest.raises(InputError, match="level_cap must be a non-negative integer"):
            is_groupoid_object(two, level_cap=cap)
    assert cech_nerve(pi, level_cap=0).levels == [(("a",), ("b",))]


def _redirect(obj, kind, n, i, x, y):
    """`obj` with the entry d_i x (kind "d") or s_i x (kind "s") sent to y."""
    level_cap, levels, face, deg = obj
    op = face if kind == "d" else deg
    moved = lambda m, j, z: y if (m, j, z) == (n, i, x) else op(m, j, z)
    return (level_cap, levels, moved, deg) if kind == "d" else (level_cap, levels, face, moved)


@st.composite
def _redirected(draw):
    """A small Cech, bar or nerve object with one face or degeneracy entry
    sent somewhere else, possibly out of its level."""
    obj = draw(st.sampled_from(_SMALL_OBJECTS))
    level_cap, levels = obj[:2]
    kind = draw(st.sampled_from("ds"))
    n = draw(st.integers(1, level_cap) if kind == "d" else st.integers(0, level_cap - 1))
    i = draw(st.integers(0, n))
    x = draw(st.sampled_from(levels[n]))
    y = draw(st.sampled_from(levels[n - 1 if kind == "d" else n + 1] + (("outside",),)))
    return _redirect(obj, kind, n, i, x, y)


def _small(level_cap, levels, face, deg):
    return level_cap, [tuple(level) for level in levels], face, deg


_SMALL_OBJECTS = [
    _small(3, *cech_callables(
        FinMap(("a", "b", "c"), ("u", "v"), {"a": "u", "b": "u", "c": "v"}), 3)),
    _small(3, *bar_callables(swap_action(), 3)),
    _small(3, *bar_callables(trivial_action(cyclic_group(3), 1), 3)),
    _small(3, *nerve_callables(walking_retraction_category(), 3)[:3]),
]


def _accepts(check, *args):
    try:
        check(*args)
    except ValidationError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(_redirected())
def test_redirected_entry_is_caught_by_both_checkers(obj):
    assert _accepts(simplicial_object, *obj) == _accepts(_oracle_validate, *obj)


def test_each_identity_family_is_checked_on_its_own():
    # each object breaks one family of identities and satisfies the others
    cech, retraction = _SMALL_OBJECTS[0], _SMALL_OBJECTS[3]
    swap_only = (
        3,
        [("v",), ("e",), ("t",), ("a", "b")],
        lambda n, i, x: ("v", "e", "t")[n - 1],
        lambda n, i, x: ("e", "t", "b" if i == 1 else "a")[n],
    )
    cases = [
        (_redirect(cech, "d", 3, 0, ("a", "b", "a", "b"), ("a", "a", "a")), "d_0 d_1 = d_0 d_0"),
        (_redirect(retraction, "s", 2, 0, ("e", "e"), ("ib", "e", "ib")), "d_0 s_0 = id"),
        (_redirect(retraction, "s", 2, 2, ("e", "e"), ("e", "e", "e")), "d_0 s_2 = s_1 d_0"),
        (_redirect(retraction, "s", 2, 0, ("e", "e"), ("e", "e", "e")), "d_2 s_0 = s_0 d_1"),
        (swap_only, "s_0 s_0 = s_1 s_0"),
    ]
    for obj, rule in cases:
        with pytest.raises(ValidationError, match=re.escape(rule)):
            simplicial_object(*obj)
        assert not _accepts(_oracle_validate, *obj)
