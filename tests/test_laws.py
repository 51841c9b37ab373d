"""The one composition-law checker against the three checkers it replaced.

`FiniteCategory.validate` checks every composition table: categories
directly, 2-categories as their vertical and horizontal categories (plus
three functors and interchange), groups as one-object categories.  The
per-structure checkers they replaced are kept below as oracles, verbatim
apart from `self` becoming an argument, and both are run on every corpus
category, 2-category and small group, on every single-entry mutation of
their tables, and on each 2-category with its horizontal composition
collapsed to identity 2-cells.  On a descent groupoid with two objects,
where associativity is checked row by row across hom sets, the two
category checkers must also give the same message on every mutation.
"""

import itertools
import re
from collections import Counter

import pytest

from hornfill.cat import (
    Finite2Category,
    FiniteCategory,
    _Rows,
    one_object_two_group,
    walking_two_cell,
)
from hornfill.corpus import (
    all_categories,
    all_small_groups,
    all_two_categories,
    cover_of_shape,
)
from hornfill.descent import descent_groupoid, torsor_presheaf
from hornfill.errors import ValidationError
from hornfill.groupoid import FiniteGroup, cyclic_group, symmetric_group


# -- the old checkers, kept as oracles -----------------------------------------


def old_category_validate(c):
    if len(set(c.objects)) != len(c.objects):
        raise ValidationError("duplicate object ids")
    for m, (s, t) in c.mor.items():
        if s not in c.objects or t not in c.objects:
            raise ValidationError(f"morphism {m!r} has endpoint outside objects")
    for x in c.objects:
        i = c.identity.get(x)
        if i is None or i not in c.mor or c.mor[i] != (x, x):
            raise ValidationError(f"bad identity at {x!r}")
    mors = sorted(c.mor)
    for g in mors:
        for f in mors:
            composable = c.mor[f][1] == c.mor[g][0]
            if composable != ((g, f) in c.compose_table):
                raise ValidationError(
                    f"composition table wrong at ({g!r}, {f!r}):"
                    f" {'missing' if composable else 'spurious'} entry"
                )
            if composable:
                gf = c.compose_table[(g, f)]
                if gf not in c.mor:
                    raise ValidationError(f"({g!r}, {f!r}) composes to unknown {gf!r}")
                if c.mor[gf] != (c.mor[f][0], c.mor[g][1]):
                    raise ValidationError(f"({g!r}, {f!r}) composes with wrong endpoints")
    for f in mors:
        s, t = c.mor[f]
        if c.compose_table[(f, c.identity[s])] != f:
            raise ValidationError(f"right unit fails at {f!r}")
        if c.compose_table[(c.identity[t], f)] != f:
            raise ValidationError(f"left unit fails at {f!r}")
    for h in mors:
        for g in mors:
            if c.mor[g][1] != c.mor[h][0]:
                continue
            hg = c.compose_table[(h, g)]
            for f in mors:
                if c.mor[f][1] != c.mor[g][0]:
                    continue
                if c.compose_table[(h, c.compose_table[(g, f)])] != c.compose_table[(hg, f)]:
                    raise ValidationError(f"associativity fails at ({h!r},{g!r},{f!r})")


def old_two_category_validate(c2):
    for a, (f, g) in c2.two.items():
        if f not in c2.one or g not in c2.one:
            raise ValidationError(f"2-cell {a!r} between unknown 1-cells")
        if c2.one[f] != c2.one[g]:
            raise ValidationError(f"2-cell {a!r} between non-parallel 1-cells")
    for f in c2.one:
        i = c2.two_identity.get(f)
        if i is None or c2.two.get(i) != (f, f):
            raise ValidationError(f"bad 2-identity at {f!r}")
    cells = sorted(c2.two)
    for b in cells:
        for a in cells:
            vc = c2.two[a][1] == c2.two[b][0]
            if vc != ((b, a) in c2.vcompose):
                raise ValidationError(f"vertical table wrong at ({b!r},{a!r})")
            if vc:
                c = c2.vcompose[(b, a)]
                if c2.two.get(c) != (c2.two[a][0], c2.two[b][1]):
                    raise ValidationError(f"vertical composite ({b!r},{a!r}) malformed")
            hc = c2.one[c2.two[a][0]][1] == c2.one[c2.two[b][0]][0]
            if hc != ((b, a) in c2.hcompose):
                raise ValidationError(f"horizontal table wrong at ({b!r},{a!r})")
            if hc:
                c = c2.hcompose[(b, a)]
                want = (
                    c2.cat.compose_table[(c2.two[b][0], c2.two[a][0])],
                    c2.cat.compose_table[(c2.two[b][1], c2.two[a][1])],
                )
                if c2.two.get(c) != want:
                    raise ValidationError(f"horizontal composite ({b!r},{a!r}) malformed")
    for a in cells:
        f, g = c2.two[a]
        if c2.vcompose[(a, c2.two_identity[f])] != a:
            raise ValidationError(f"vertical right unit fails at {a!r}")
        if c2.vcompose[(c2.two_identity[g], a)] != a:
            raise ValidationError(f"vertical left unit fails at {a!r}")
    for c in cells:
        for b in cells:
            if c2.two[b][1] != c2.two[c][0]:
                continue
            cb = c2.vcompose[(c, b)]
            for a in cells:
                if c2.two[a][1] != c2.two[b][0]:
                    continue
                if c2.vcompose[(c, c2.vcompose[(b, a)])] != c2.vcompose[(cb, a)]:
                    raise ValidationError("vertical associativity fails")
    for (g, f), gf in c2.cat.compose_table.items():
        if c2.hcompose[(c2.two_identity[g], c2.two_identity[f])] != c2.two_identity[gf]:
            raise ValidationError(f"horizontal identity fails at ({g!r},{f!r})")
    for b2 in cells:
        for b1 in cells:
            if c2.two[b1][1] != c2.two[b2][0]:
                continue
            for a2 in cells:
                if c2.one[c2.two[a2][0]][1] != c2.one[c2.two[b2][0]][0]:
                    continue
                for a1 in cells:
                    if c2.two[a1][1] != c2.two[a2][0]:
                        continue
                    lhs = c2.hcompose[(c2.vcompose[(b2, b1)], c2.vcompose[(a2, a1)])]
                    rhs = c2.vcompose[
                        (c2.hcompose[(b2, a2)], c2.hcompose[(b1, a1)])
                    ]
                    if lhs != rhs:
                        raise ValidationError("interchange fails")
    for c in cells:
        for b in cells:
            if c2.one[c2.two[b][0]][1] != c2.one[c2.two[c][0]][0]:
                continue
            cb = c2.hcompose[(c, b)]
            for a in cells:
                if c2.one[c2.two[a][0]][1] != c2.one[c2.two[b][0]][0]:
                    continue
                if c2.hcompose[(c, c2.hcompose[(b, a)])] != c2.hcompose[(cb, a)]:
                    raise ValidationError("horizontal associativity fails")


def old_group_validate(g):
    es = g.elements
    if len(set(es)) != len(es):
        raise ValidationError("duplicate group elements")
    for a in es:
        for b in es:
            if (a, b) not in g.mul or g.mul[(a, b)] not in set(es):
                raise ValidationError(f"multiplication not closed at ({a!r},{b!r})")
    g.identity()
    for a in es:
        for b in es:
            for c in es:
                if g.mul[(g.mul[(a, b)], c)] != g.mul[(a, g.mul[(b, c)])]:
                    raise ValidationError(f"associativity fails at ({a!r},{b!r},{c!r})")
    for a in es:
        g.inverse(a)


# -- helpers -------------------------------------------------------------------


def _failure(check):
    """The ValidationError message of `check()`, or None if it passes."""
    try:
        check()
    except ValidationError as exc:
        return str(exc)
    return None


def _mutations(table, values):
    """Every copy of `table` with one entry dropped or sent to another value."""
    for key in sorted(table):
        dropped = dict(table)
        del dropped[key]
        yield dropped
        for v in values:
            if v != table[key]:
                yield {**table, key: v}


def _two_category(c2, **tables):
    """c2 with some of its tables replaced, unchecked."""
    parts = {
        "compose": c2.cat.compose_table,
        "two_identity": c2.two_identity,
        "vcompose": c2.vcompose,
        "hcompose": c2.hcompose,
    }
    parts.update(tables)
    return Finite2Category(
        c2.objects, c2.one, c2.cat.identity, parts["compose"], c2.two,
        parts["two_identity"], parts["vcompose"], parts["hcompose"], check=False,
    )


def _new_two_failure(c2):
    return _failure(lambda: (c2.cat.validate(), c2.validate()))


def _old_two_failure(c2):
    return _failure(lambda: (old_category_validate(c2.cat), old_two_category_validate(c2)))


def _horizontal_units_fail(c2):
    """Does some 2-cell a have id2(id) * a != a or a * id2(id) != a?"""
    for a, (f, _) in c2.two.items():
        s, t = c2.one[f]
        unit_s = c2.two_identity[c2.cat.identity[s]]
        unit_t = c2.two_identity[c2.cat.identity[t]]
        if c2.hcompose[(a, unit_s)] != a or c2.hcompose[(unit_t, a)] != a:
            return True
    return False


def _two_category_mutants(c2):
    cells = sorted(c2.two)
    for field, table, values in (
        ("compose", c2.cat.compose_table, sorted(c2.one)),
        ("two_identity", c2.two_identity, cells),
        ("vcompose", c2.vcompose, cells),
        ("hcompose", c2.hcompose, cells),
    ):
        for mutated in _mutations(table, values):
            yield _two_category(c2, **{field: mutated})
    # every horizontal composite collapsed to the identity 2-cell of its
    # source 1-cell: on a one-object 2-group this breaks only the unit laws
    yield _two_category(c2, hcompose={
        k: c2.two_identity[c2.two[a][0]] for k, a in c2.hcompose.items()
    })


# -- differential tests --------------------------------------------------------


def test_category_checker_agrees_with_the_old_one_on_every_mutation():
    mutants = 0
    for name, c in all_categories().items():
        assert _failure(c.validate) is None and _failure(lambda: old_category_validate(c)) is None
        for table in _mutations(c.compose_table, sorted(c.mor)):
            m = FiniteCategory(c.objects, c.mor, c.identity, table, check=False)
            new = _failure(m.validate)
            old = _failure(lambda: old_category_validate(m))
            assert (new is None) == (old is None), (name, new, old)
            mutants += 1
    assert mutants > 1000


def _reversed_names(c):
    """c with its morphisms renamed so that their sorted order reverses."""
    mors = sorted(c.mor)
    name = {m: f"m{len(mors) - k:02d}" for k, m in enumerate(mors)}
    return FiniteCategory(
        c.objects,
        {name[m]: ends for m, ends in c.mor.items()},
        {x: name[i] for x, i in c.identity.items()},
        {(name[g], name[f]): name[gf] for (g, f), gf in c.compose_table.items()},
    )


def test_category_checker_gives_the_old_message_on_every_mutation_of_a_descent_groupoid():
    # the C2 descent groupoid on cover (2, 1) has two objects and four
    # morphisms in each hom set; each mutant sends one composite to another
    # morphism of its hom set, so only the unit laws and associativity can
    # fail.  Its identities sort first in each row, so the same groupoid is
    # also mutated with its morphism names in reverse order.
    gpd = descent_groupoid(torsor_presheaf(cyclic_group(2)), cover_of_shape((2, 1))).groupoid
    assert (len(gpd.objects), len(gpd.mor)) == (2, 16)
    for c in (gpd, _reversed_names(gpd)):
        kinds = Counter()
        for key, value in sorted(c.compose_table.items()):
            for other in c.hom(*c.mor[value]):
                if other == value:
                    continue
                table = {**c.compose_table, key: other}
                m = FiniteCategory(c.objects, c.mor, c.identity, table, check=False)
                new = _failure(m.validate)
                assert new == _failure(lambda: old_category_validate(m)), (key, other)
                kinds[new and new.split(" fails at ")[0]] += 1
        assert kinds == {"associativity": 294, "right unit": 48, "left unit": 42}


def test_group_checker_agrees_with_the_old_one_on_every_mutation():
    rejected = 0
    for name, g in all_small_groups().items():
        assert _failure(g.validate) is None
        for table in _mutations(g.mul, g.elements):
            new = _failure(FiniteGroup(g.elements, table, check=False).validate)
            old = _failure(lambda: old_group_validate(FiniteGroup(g.elements, table, check=False)))
            assert (new is None) == (old is None), (name, new, old)
            rejected += new is not None
    assert rejected > 500


def test_two_category_checker_agrees_with_the_old_one_but_adds_horizontal_units():
    only_units = []
    for name, c2 in all_two_categories().items():
        assert _new_two_failure(c2) is None and _old_two_failure(c2) is None, name
        for m in _two_category_mutants(c2):
            new, old = _new_two_failure(m), _old_two_failure(m)
            if (new is None) == (old is None):
                continue
            # the one allowed difference: the old checker never tested the
            # horizontal unit laws
            assert old is None and _horizontal_units_fail(m), (name, new, old)
            assert new.startswith("horizontal: ") and "unit fails" in new, new
            only_units.append((name, new))
    assert only_units


# -- each law family, broken on its own ------------------------------------------


def _one_object_category(table, unit="1"):
    elements = sorted({g for g, f in table})
    return FiniteCategory(
        ("*",), {x: ("*", "*") for x in elements}, {"*": unit}, table, check=False
    )


# {1, z, w}: 1 is a two-sided unit, but w (w w) = w z = w while (w w) w = z w = z
_UNITAL_MAGMA = {
    ("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z", ("1", "w"): "w", ("w", "1"): "w",
    ("z", "z"): "z", ("z", "w"): "z", ("w", "z"): "w", ("w", "w"): "z",
}
# {1, z, w}: 1 is a unit and every other product is its left factor
_LEFT_ZERO_MONOID = {
    **{(x, "1"): x for x in "1zw"}, **{("1", x): x for x in "zw"},
    **{(x, y): x for x in "zw" for y in "zw"},
}


@pytest.mark.parametrize("table, message", [
    ({("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z"},
     "composition table wrong at ('z', 'z'): missing entry"),
    ({("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z", ("z", "z"): "1", ("z", "q"): "z"},
     "composition table wrong at ('z', 'q'): spurious entry"),
    ({("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z", ("z", "z"): "q"},
     "('z', 'z') composes to unknown 'q'"),
    ({("1", "1"): "1", ("1", "z"): "1", ("z", "1"): "z", ("z", "z"): "1"},
     "left unit fails at 'z'"),
    ({("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "1", ("z", "z"): "1"},
     "right unit fails at 'z'"),
    (_UNITAL_MAGMA, "associativity fails at ('w','w','w')"),
])
def test_category_checker_names_each_broken_law(table, message):
    c = _one_object_category(table)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        c.validate()


def test_category_checker_names_wrong_endpoints():
    mor = {"ix": ("x", "x"), "iy": ("y", "y"), "a": ("x", "y")}
    table = {("ix", "ix"): "ix", ("iy", "iy"): "iy", ("a", "ix"): "iy", ("iy", "a"): "a"}
    c = FiniteCategory(("x", "y"), mor, {"x": "ix", "y": "iy"}, table, check=False)
    with pytest.raises(ValidationError, match=r"^\('a', 'ix'\) composes with wrong endpoints$"):
        c.validate()


def _one_one_cell(vertical, horizontal, unit="1"):
    """One object, one 1-cell, 2-cells the elements of two tables on one set."""
    cells = sorted({x for pair in vertical for x in pair})
    return Finite2Category(
        ("*",), {"i": ("*", "*")}, {"*": "i"}, {("i", "i"): "i"},
        {a: ("i", "i") for a in cells}, {"i": unit}, vertical, horizontal, check=False,
    )


def _idempotent_labels(twisted):
    """One object, 1-cells {1, g} with g g = 1, and over each 1-cell x the
    2-cells x => x labelled by the monoid {e, p} with p p = p.  Both
    compositions multiply labels; twisted, g * g also multiplies in a p, so
    id2(g) * id2(g) = 1p is not id2(1).  Every other law still holds."""
    ones = {"1": ("*", "*"), "g": ("*", "*")}
    comp = {("1", "1"): "1", ("1", "g"): "g", ("g", "1"): "g", ("g", "g"): "1"}
    label = lambda *ls: "p" if "p" in ls else "e"
    vcomp, hcomp = {}, {}
    for y in ones:
        for s in "ep":
            for t in "ep":
                vcomp[(y + s, y + t)] = y + label(s, t)
                for x in ones:
                    twist = "p" if twisted and x == y == "g" else "e"
                    hcomp[(y + s, x + t)] = comp[(y, x)] + label(s, t, twist)
    return Finite2Category(
        ("*",), ones, {"*": "1"}, comp, {x + s: (x, x) for x in ones for s in "ep"},
        {x: x + "e" for x in ones}, vcomp, hcomp, check=False,
    )


def _constant_horizontal():
    """The one-object 2-group on C2 with every horizontal composite ac0."""
    c2 = one_object_two_group(cyclic_group(2))
    return _two_category(c2, hcompose={k: "ac0" for k in c2.hcompose})


def _non_parallel_cell():
    """The walking 2-cell with m: u => iy, so m's target is not parallel to u."""
    w = walking_two_cell()
    vcomp = {k: v for k, v in w.vcompose.items() if k != ("=v", "m")}
    vcomp[("=iy", "m")] = "m"
    return Finite2Category(
        w.objects, w.one, w.cat.identity, w.cat.compose_table, {**w.two, "m": ("u", "iy")},
        w.two_identity, vcomp, w.hcompose, check=False,
    )


def _broken_two_categories():
    """2-categories that each break one law family, with the failure expected."""
    c2 = one_object_two_group(cyclic_group(2))
    from_bc2 = all_two_categories()["from_bc2"]
    walking = walking_two_cell()
    s3 = symmetric_group(3)
    s3_table = {(y, x): s3.mul[(y, x)] for y in s3.elements for x in s3.elements}
    return [
        ("vertical: left unit fails at 'ac1'",
         _two_category(c2, vcompose={**c2.vcompose, ("ac0", "ac1"): "ac0"})),
        ("vertical: associativity fails at ('w','w','w')",
         _one_one_cell(_UNITAL_MAGMA, _LEFT_ZERO_MONOID)),
        ("vertical: composition table wrong at ('=v', 'm'): missing entry",
         _two_category(walking, vcompose={k: v for k, v in walking.vcompose.items()
                                          if k != ("=v", "m")})),
        ("horizontal: right unit fails at 'ac1'", _constant_horizontal()),
        ("horizontal: associativity fails at ('w','w','w')",
         _one_one_cell(_LEFT_ZERO_MONOID, _UNITAL_MAGMA)),
        ("horizontal: composition table wrong at ('m', '=ix'): missing entry",
         _two_category(walking, hcompose={k: v for k, v in walking.hcompose.items()
                                          if k != ("m", "=ix")})),
        # =c1 * =c1 lies over c1, not over c1 c1 = c0
        ("source functor: composition ('=c1','=c1') not preserved",
         _two_category(from_bc2, hcompose={**from_bc2.hcompose, ("=c1", "=c1"): "=c1"})),
        ("target functor: image of 'm' has wrong endpoints", _non_parallel_cell()),
        ("two_identity functor: composition ('g','g') not preserved",
         _idempotent_labels(twisted=True)),
        ("interchange fails at ('012','021') * ('102','012')",
         _one_one_cell(s3_table, s3_table, unit=s3.identity())),
    ]


@pytest.mark.parametrize("message, c2", _broken_two_categories())
def test_two_category_checker_names_each_broken_structure(message, c2):
    c2.cat.validate()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        c2.validate()


def test_law_family_examples_break_nothing_else():
    # untwisted, the labelled 2-category satisfies every law
    _idempotent_labels(twisted=False).validate()
    # the old checker accepts the constant horizontal composition, which
    # breaks only the horizontal unit laws, and finds the same single faults
    # in the other two
    old_two_category_validate(_constant_horizontal())
    assert _failure(lambda: old_two_category_validate(_idempotent_labels(twisted=True))) == (
        "horizontal identity fails at ('g','g')"
    )
    assert _failure(lambda: old_two_category_validate(_non_parallel_cell())) == (
        "2-cell 'm' between non-parallel 1-cells"
    )


@pytest.mark.parametrize("table, message", [
    ({**cyclic_group(3).mul, ("c1", "c2"): "c1"},
     "group table: associativity fails at ('c1','c1','c1')"),
    ({k: v for k, v in cyclic_group(3).mul.items() if k != ("c2", "c2")},
     "group table: composition table wrong at ('c2', 'c2'): missing entry"),
    ({**cyclic_group(3).mul, ("c2", "c2"): "x"},
     "group table: ('c2', 'c2') composes to unknown 'x'"),
    ({**cyclic_group(3).mul, ("c0", "c1"): "c2"}, "no identity element"),
])
def test_group_checker_names_each_broken_law(table, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        FiniteGroup(("c0", "c1", "c2"), table)


def test_group_checker_rejects_a_monoid_without_inverses():
    with pytest.raises(ValidationError, match="^no inverse for 'z'$"):
        FiniteGroup(("1", "z"), {("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z",
                                 ("z", "z"): "z"})


def test_identities_keyed_by_unknown_objects_are_refused():
    c = _one_object_category({("1", "1"): "1"})
    c.identity["ghost"] = "1"
    with pytest.raises(ValidationError, match="^identity keyed by unknown object 'ghost'$"):
        c.validate()
    c2 = one_object_two_group(cyclic_group(2))
    c2.two_identity["ghost"] = "ac0"
    with pytest.raises(
        ValidationError, match="^vertical: identity keyed by unknown object 'ghost'$"
    ):
        c2.validate()


# -- Light's test against the row scan -------------------------------------------


def _against_the_row_scan(c):
    """validate's message on c, checked against the old checker and, once
    the entries and unit laws hold, against the row scan: the generators
    are all good exactly when the row scan finds no failing triple, and
    validate names that triple."""
    message = _failure(c.validate)
    assert message == _failure(lambda: old_category_validate(c))
    if message is None or message.startswith("associativity fails at "):
        rows = _Rows(c)
        triple = rows.first_failure()
        assert all(map(rows.good, rows.generators(c.identity))) == (triple is None)
        assert message == (triple and "associativity fails at ({!r},{!r},{!r})".format(*triple))
    return message


def _kind(message):
    """The law a message names, or "entries" for a malformed table."""
    return message and (message.split(" fails at ")[0] if " fails at " in message else "entries")


def _within_hom(c):
    """Every copy of c's table with one or two entries sent to other
    morphisms of their hom sets, so that only the laws can fail."""
    table = c.compose_table
    keys = sorted(table)
    others = {k: [m for m in c.hom(*c.mor[table[k]]) if m != table[k]] for k in keys}
    for k1 in keys:
        for v1 in others[k1]:
            yield {**table, k1: v1}
            for k2 in keys[keys.index(k1) + 1:]:
                for v2 in others[k2]:
                    yield {**table, k1: v1, k2: v2}


def test_generator_check_matches_the_row_scan_on_categories_that_are_not_groupoids():
    # a poset's spanning tree leaves arrows unreached, so the greedy pass
    # adds them; the idempotent monoid's one generator is its idempotent
    kinds = Counter()
    for name, c in all_categories().items():
        if c.is_groupoid():
            continue
        gens = _Rows(c).generators(c.identity)
        if name in ("poset2", "poset3", "square"):
            assert len(gens) > len(c.objects) - 1, name
        tables = [c.compose_table, *_mutations(c.compose_table, sorted(c.mor)), *_within_hom(c)]
        for table in tables:
            m = FiniteCategory(c.objects, c.mor, c.identity, table, check=False)
            kinds[_kind(_against_the_row_scan(m))] += 1
    # every unital magma on {1, z, w}, alone and as the endomorphisms of b
    # under an arrow s: a -> b that they all fix; there the spanning tree
    # is s, with no inverse, and z and w are reached only by the greedy pass
    for values in itertools.product("1zw", repeat=4):
        table = {**{(x, "1"): x for x in "1zw"}, ("1", "z"): "z", ("1", "w"): "w",
                 **dict(zip(itertools.product("zw", repeat=2), values))}
        under = FiniteCategory(
            ("a", "b"), {"ia": ("a", "a"), "s": ("a", "b"), **{x: ("b", "b") for x in "1zw"}},
            {"a": "ia", "b": "1"},
            {**table, ("ia", "ia"): "ia", ("s", "ia"): "s", **{(x, "s"): "s" for x in "1zw"}},
            check=False,
        )
        assert _Rows(under).generators(under.identity)[0] == "s"
        for m in (_one_object_category(table), under):
            kinds[_kind(_against_the_row_scan(m))] += 1
    assert kinds == {
        "entries": 606, "right unit": 36, "left unit": 17, "associativity": 145, None: 36,
    }


def _without_one_inverse(gpd, arrows):
    """Every copy of gpd in which u o t, for one t: x -> y of `arrows` and
    its inverse u, is sent to another endomorphism of x, so t has no
    inverse."""
    for t in arrows:
        u, x = gpd.inverse(t), gpd.src(t)
        for other in gpd.hom(x, x):
            if other != gpd.identity[x]:
                table = {**gpd.compose_table, (u, t): other}
                yield t, FiniteCategory(gpd.objects, gpd.mor, gpd.identity, table, check=False)


def test_generator_check_matches_the_row_scan_on_descent_groupoids_without_an_inverse():
    # on C2 every arrow loses its inverse in turn; on C3 each generator
    # does, so a spanning-tree arrow loses the inverse that would have
    # joined after it and the greedy pass takes its place
    expected = {
        "c2": {"associativity": 42, "right unit": 6},
        "c3": {"associativity": 48},
    }
    for name, group, count in (("c2", cyclic_group(2), 16), ("c3", cyclic_group(3), 81)):
        gpd = descent_groupoid(torsor_presheaf(group), cover_of_shape((2, 1))).groupoid
        assert len(gpd.mor) == count and _against_the_row_scan(gpd) is None
        gens = _Rows(gpd).generators(gpd.identity)
        tree = gens[:2 * (len(gpd.objects) - 1)]  # each tree arrow, then its inverse
        kinds = Counter()
        for t, m in _without_one_inverse(gpd, sorted(gpd.mor) if name == "c2" else gens):
            assert m.inverse(t) is None
            if t in tree:
                assert _Rows(m).generators(m.identity) != gens
            kinds[_kind(_against_the_row_scan(m))] += 1
        assert kinds == expected[name], kinds


def test_the_s3_descent_groupoid_passes_on_few_generators_without_the_row_scan(monkeypatch):
    def refuse(rows):
        raise AssertionError("the row scan ran on a valid table")

    monkeypatch.setattr(_Rows, "first_failure", refuse)
    gpd = descent_groupoid(torsor_presheaf(symmetric_group(3)), cover_of_shape((2, 1))).groupoid
    assert len(gpd.mor) == 1296
    assert len(_Rows(gpd).generators(gpd.identity)) <= 20
