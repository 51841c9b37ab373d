"""Groups, actions, groupoids, and set-valued simplicial objects."""

import contextlib
import itertools
import re
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

GROUPS = all_small_groups()


def test_small_group_census():
    assert sorted(GROUPS) == ["c1", "c2", "c3", "c4", "c5", "c6", "s3", "v4"]
    assert [GROUPS[n].order() for n in sorted(GROUPS)] == [1, 2, 3, 4, 5, 6, 6, 4]
    assert GROUPS["s3"].is_abelian() is False
    assert all(GROUPS[n].is_abelian() for n in GROUPS if n != "s3")


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


@contextlib.contextmanager
def _recorded_callables():
    """Record each SimplicialObject built, with its (level_cap, levels,
    face, deg)."""
    built = []
    init = SimplicialObject.__init__

    def record(self, level_cap, levels, face, deg, check=True):
        levels = [tuple(levels[n]) for n in range(level_cap + 1)]
        built.append((self, (level_cap, levels, face, deg)))
        init(self, level_cap, levels, face, deg, check)

    SimplicialObject.__init__ = record
    try:
        yield built
    finally:
        SimplicialObject.__init__ = init


def _built_with_callables(build):
    # a nerve's LevelModel also builds the level table of its sset
    with _recorded_callables() as built:
        obj = build()
    return obj, next(args for made, args in built if made is obj)


def _gluing_objects():
    for prof in cover_shapes():
        cover = cover_of_shape(prof)
        pi = FinMap(cover.e, cover.b, dict(cover.pi))
        yield f"cech {prof}", lambda pi=pi: cech_nerve(pi, level_cap=3)
    for gname, g in GROUPS.items():
        for n in (1, 2, 3):
            for i, act in enumerate(all_actions(g, n)):
                yield f"bar {gname} {n} {i}", lambda act=act: action_bar_object(act, level_cap=3)
    yield "poset1 nerve", lambda: nerve_object_of_category(poset_category(1))
    yield "idempotent nerve", lambda: nerve_object_of_category(idempotent_monoid_category())
    yield "punctured cech", punctured_cech_object


def test_one_simplicial_object_class():
    assert SimplicialObject is sset.SimplicialObject is hornfill.SimplicialObject
    assert issubclass(sset.LevelModel, SimplicialObject)
    assert "restrict" in vars(SimplicialObject)


def test_gluing_matches_the_callable_route_on_every_object():
    count = 0
    for name, build in _gluing_objects():
        obj, (level_cap, levels, face, deg) = _built_with_callables(build)
        _oracle_validate(level_cap, levels, face, deg)
        rep = is_groupoid_object(obj)
        assert (rep.holds, rep.witness, rep.checked) == _oracle_is_groupoid_object(
            level_cap, levels, face
        ), name
        count += 1
    assert count == 18 + sum(len(all_actions(g, n)) for g in GROUPS.values() for n in (1, 2, 3)) + 3


def test_face_degeneracy_and_restriction_are_table_lookups():
    for name, build in _gluing_objects():
        obj, (level_cap, levels, face, deg) = _built_with_callables(build)
        assert obj.levels == levels
        for n in range(level_cap + 1):
            for x in levels[n]:
                for i in range(n + 1):
                    if n:
                        assert obj.face(n, i, x) == face(n, i, x)
                    if n < level_cap:
                        assert obj.deg(n, i, x) == deg(n, i, x)
                for subset in itertools.chain.from_iterable(
                    itertools.combinations(range(n + 1), k) for k in range(1, n + 2)
                ):
                    assert obj.restrict(n, subset, x) == _oracle_restrict(face, n, subset, x)


def test_callables_run_once_per_entry():
    calls = {}
    pi = FinMap(("a", "b", "c"), ("u", "v"), {"a": "u", "b": "u", "c": "v"})

    def counted(op):
        def call(n, i, x):
            calls[(op, n, i, x)] = calls.get((op, n, i, x), 0) + 1
            return x[:i] + x[i + 1:] if op == "d" else x[: i + 1] + x[i:]
        return call

    base = cech_nerve(pi, level_cap=3)
    obj = SimplicialObject(3, base.levels, counted("d"), counted("s"))
    assert set(calls.values()) == {1}
    assert len(calls) == sum(
        (n + 1) * len(base.levels[n]) for n in range(1, 4)
    ) + sum((n + 1) * len(base.levels[n]) for n in range(3))
    assert obj.faces == base.faces and obj.degs == base.degs


def test_table_checker_names_the_failing_element():
    base = cech_nerve(FinMap(("a", "b"), ("*",), {"a": "*", "b": "*"}), level_cap=2)

    def face(n, i, x):
        if x == ("a", "b", "b") and i == 0:
            return ("a", "a")
        return x[:i] + x[i + 1:]

    with pytest.raises(ValidationError, match=r"\('a', 'b', 'b'\)"):
        SimplicialObject(2, base.levels, face, lambda n, i, x: x[: i + 1] + x[i:])
    with pytest.raises(ValidationError, match="duplicate"):
        SimplicialObject(0, [("a", "a")], None, None)
    with pytest.raises(ValidationError, match="leaves level 0"):
        SimplicialObject(1, [("a",), (("a", "a"),)], lambda n, i, x: "z", lambda n, i, x: ("a", "a"))
    with pytest.raises(InputError):
        base.restrict(2, (0, 3), ("a", "b", "b"))


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


def _record_small_objects():
    small = [
        lambda: cech_nerve(FinMap(("a", "b", "c"), ("u", "v"), {"a": "u", "b": "u", "c": "v"}), 3),
        lambda: action_bar_object(swap_action(), 3),
        lambda: action_bar_object(trivial_action(cyclic_group(3), 1), 3),
        lambda: nerve_object_of_category(walking_retraction_category(), 3),
    ]
    return [_built_with_callables(build)[1] for build in small]


_SMALL_OBJECTS = _record_small_objects()


def _accepts(check, *args):
    try:
        check(*args)
    except ValidationError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(_redirected())
def test_redirected_entry_is_caught_by_both_checkers(obj):
    assert _accepts(SimplicialObject, *obj) == _accepts(_oracle_validate, *obj)


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
            SimplicialObject(*obj)
        assert not _accepts(_oracle_validate, *obj)
