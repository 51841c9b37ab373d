"""A zoo of small finite test objects.

Everything here is assembled from the public constructors and is meant
for tests, scripts, and the command line demos: posets, small monoids
and groups presented as one-object categories, walking shapes, all
groups of order at most six, exhaustive lists of group actions on small
carriers, the standard cover shapes, and a few deliberately broken
simplicial objects whose failure points are known in advance.
"""

import itertools

from .cat import (
    FiniteCategory,
    nerve,
    one_object_two_group,
    split_two_group,
    two_category_from_category,
    walking_invertible_two_cell,
    walking_two_cell,
)
from .descent import Cover
from .errors import InputError
from .groupoid import (
    GroupAction,
    SimplicialObject,
    cech_nerve,
    cyclic_group,
    direct_product,
    evaluate_word,
    FinMap,
    symmetric_group,
    trivial_group,
    word_table,
)


# ---------------------------------------------------------------------------
# categories


def poset_category(n):
    """The linear order 0 < 1 < ... < n as a category."""
    objs = tuple(str(i) for i in range(n + 1))
    mors, ident, comp = {}, {}, {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            mors[f"{i}{j}"] = (str(i), str(j))
            if i == j:
                ident[str(i)] = f"{i}{j}"
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                comp[(f"{j}{k}", f"{i}{j}")] = f"{i}{k}"
    return FiniteCategory(objs, mors, ident, comp)


def discrete_category(n):
    objs = tuple(f"o{i}" for i in range(n))
    mors = {f"id{i}": (f"o{i}", f"o{i}") for i in range(n)}
    ident = {f"o{i}": f"id{i}" for i in range(n)}
    comp = {(f"id{i}", f"id{i}"): f"id{i}" for i in range(n)}
    return FiniteCategory(objs, mors, ident, comp)


def span_category():
    """c -> a, c -> b."""
    objs = ("a", "b", "c")
    mors = {
        "ia": ("a", "a"), "ib": ("b", "b"), "ic": ("c", "c"),
        "f": ("c", "a"), "g": ("c", "b"),
    }
    ident = {"a": "ia", "b": "ib", "c": "ic"}
    comp = {}
    for m, (s, t) in mors.items():
        comp[(ident[t], m)] = m
        comp[(m, ident[s])] = m
    return FiniteCategory(objs, mors, ident, comp)


def cospan_category():
    """a -> c <- b."""
    objs = ("a", "b", "c")
    mors = {
        "ia": ("a", "a"), "ib": ("b", "b"), "ic": ("c", "c"),
        "f": ("a", "c"), "g": ("b", "c"),
    }
    ident = {"a": "ia", "b": "ib", "c": "ic"}
    comp = {}
    for m, (s, t) in mors.items():
        comp[(ident[t], m)] = m
        comp[(m, ident[s])] = m
    return FiniteCategory(objs, mors, ident, comp)


def square_poset_category():
    """The commuting square: the product order on {0,1} x {0,1}."""
    points = [(0, 0), (0, 1), (1, 0), (1, 1)]
    name = {p: f"{p[0]}{p[1]}" for p in points}
    objs = tuple(name[p] for p in points)
    mors, ident, comp = {}, {}, {}
    leq = lambda p, q: p[0] <= q[0] and p[1] <= q[1]
    for p in points:
        for q in points:
            if leq(p, q):
                mors[f"{name[p]}->{name[q]}"] = (name[p], name[q])
                if p == q:
                    ident[name[p]] = f"{name[p]}->{name[q]}"
    for p in points:
        for q in points:
            for r in points:
                if leq(p, q) and leq(q, r):
                    comp[(f"{name[q]}->{name[r]}", f"{name[p]}->{name[q]}")] = (
                        f"{name[p]}->{name[r]}"
                    )
    return FiniteCategory(objs, mors, ident, comp)


def monoid_category(elements, mul, unit):
    """A monoid as a one-object category."""
    mors = {m: ("*", "*") for m in elements}
    comp = {(a, b): mul[(a, b)] for a in elements for b in elements}
    return FiniteCategory(("*",), mors, {"*": unit}, comp)


def bg_category(group):
    """A group as a one-object groupoid-shaped category."""
    return monoid_category(group.elements, group.mul, group.identity())


def idempotent_monoid_category():
    """The monoid {1, z} with z z = z.

    Its nerve is the standard non-injective witness: composing with z
    does not cancel, so distinct composable pairs share their composite
    and outer edge.
    """
    elements = ("1", "z")
    mul = {
        ("1", "1"): "1", ("1", "z"): "z",
        ("z", "1"): "z", ("z", "z"): "z",
    }
    return monoid_category(elements, mul, "1")


def pair_groupoid_category(n):
    """Objects 0..n-1 with exactly one morphism between any two."""
    objs = tuple(str(i) for i in range(n))
    mors = {f"{i}>{j}": (str(i), str(j)) for i in range(n) for j in range(n)}
    ident = {str(i): f"{i}>{i}" for i in range(n)}
    comp = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comp[(f"{j}>{k}", f"{i}>{j}")] = f"{i}>{k}"
    return FiniteCategory(objs, mors, ident, comp)


def walking_parallel_pair_category():
    """a => b: two parallel arrows, no relations."""
    objs = ("a", "b")
    mors = {"ia": ("a", "a"), "ib": ("b", "b"), "f": ("a", "b"), "g": ("a", "b")}
    ident = {"a": "ia", "b": "ib"}
    comp = {}
    for m, (s, t) in mors.items():
        comp[(ident[t], m)] = m
        comp[(m, ident[s])] = m
    return FiniteCategory(objs, mors, ident, comp)


def walking_retraction_category():
    """s: a -> b split by r: b -> a, with e = s r idempotent on b."""
    objs = ("a", "b")
    mors = {
        "ia": ("a", "a"), "ib": ("b", "b"),
        "s": ("a", "b"), "r": ("b", "a"), "e": ("b", "b"),
    }
    ident = {"a": "ia", "b": "ib"}
    comp = {
        ("r", "s"): "ia",
        ("s", "r"): "e",
        ("e", "e"): "e",
        ("e", "s"): "s",
        ("r", "e"): "r",
    }
    for m, (s, t) in mors.items():
        comp[(ident[t], m)] = m
        comp[(m, ident[s])] = m
    return FiniteCategory(objs, mors, ident, comp)


def disjoint_union_category(c, d):
    """Coproduct of two categories, with relabeled pieces."""
    objs = tuple(f"L{x}" for x in c.objects) + tuple(f"R{x}" for x in d.objects)
    mors = {}
    for m, (s, t) in c.mor.items():
        mors[f"L{m}"] = (f"L{s}", f"L{t}")
    for m, (s, t) in d.mor.items():
        mors[f"R{m}"] = (f"R{s}", f"R{t}")
    ident = {f"L{x}": f"L{m}" for x, m in c.identity.items()}
    ident.update({f"R{x}": f"R{m}" for x, m in d.identity.items()})
    comp = {(f"L{g}", f"L{f}"): f"L{h}" for (g, f), h in c.compose_table.items()}
    comp.update(
        {(f"R{g}", f"R{f}"): f"R{h}" for (g, f), h in d.compose_table.items()}
    )
    return FiniteCategory(objs, mors, ident, comp)


def all_categories():
    """At least twenty named small categories with varied behavior."""
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    out = {
        "poset0": poset_category(0),
        "poset1": poset_category(1),
        "poset2": poset_category(2),
        "poset3": poset_category(3),
        "span": span_category(),
        "cospan": cospan_category(),
        "square": square_poset_category(),
        "discrete2": discrete_category(2),
        "discrete3": discrete_category(3),
        "bc2": bg_category(cyclic_group(2)),
        "bc3": bg_category(cyclic_group(3)),
        "bc4": bg_category(cyclic_group(4)),
        "bv4": bg_category(klein),
        "bc5": bg_category(cyclic_group(5)),
        "bs3": bg_category(symmetric_group(3)),
        "idempotent": idempotent_monoid_category(),
        "pair2": pair_groupoid_category(2),
        "pair3": pair_groupoid_category(3),
        "parallel_pair": walking_parallel_pair_category(),
        "retraction": walking_retraction_category(),
        "poset1_plus_bc2": disjoint_union_category(
            poset_category(1), bg_category(cyclic_group(2))
        ),
        "discrete1_plus_pair2": disjoint_union_category(
            discrete_category(1), pair_groupoid_category(2)
        ),
    }
    return out


def all_two_categories():
    return {
        "from_poset1": two_category_from_category(poset_category(1)),
        "from_bc2": two_category_from_category(bg_category(cyclic_group(2))),
        "two_group_c2": one_object_two_group(cyclic_group(2)),
        "two_group_c3": one_object_two_group(cyclic_group(3)),
        "split_c2_c2": split_two_group(cyclic_group(2), cyclic_group(2)),
        "walking_cell": walking_two_cell(),
        "walking_invertible_cell": walking_invertible_two_cell(),
    }


# ---------------------------------------------------------------------------
# groups and actions


def all_small_groups():
    """All groups of order at most six, up to isomorphism."""
    return {
        "c1": trivial_group(),
        "c2": cyclic_group(2),
        "c3": cyclic_group(3),
        "c4": cyclic_group(4),
        "v4": direct_product(cyclic_group(2), cyclic_group(2)),
        "c5": cyclic_group(5),
        "c6": cyclic_group(6),
        "s3": symmetric_group(3),
    }


def all_actions(group, n_points):
    """Every action of the group on x0..x{n-1}, one per homomorphism.

    Generator images run over the full symmetric group; each candidate
    is expanded along word expressions and then verified to be a
    homomorphism outright, so nothing depends on a chosen presentation.
    """
    sym = symmetric_group(n_points)
    gens, words = word_table(group)
    points = tuple(f"x{i}" for i in range(n_points))
    out = []
    for images in itertools.product(sym.elements, repeat=len(gens)):
        f = {a: evaluate_word(sym, images, word) for a, word in words.items()}
        if any(
            f[group.mul[(a, b)]] != sym.mul[(f[a], f[b])]
            for a in group.elements
            for b in group.elements
        ):
            continue
        act = {}
        for a in group.elements:
            perm = f[a]
            for i, x in enumerate(points):
                act[(a, x)] = points[int(perm[i])]
        out.append(GroupAction(group, points, act))
    return out


def free_transitive_action(group):
    """The group acting on itself by left translation."""
    carrier = tuple(group.elements)
    act = {
        (g, x): group.mul[(g, x)]
        for g in group.elements
        for x in group.elements
    }
    return GroupAction(group, carrier, act)


def trivial_action(group, n_points):
    points = tuple(f"x{i}" for i in range(n_points))
    act = {(g, x): x for g in group.elements for x in points}
    return GroupAction(group, points, act)


def swap_action():
    """The two-element group swapping two points."""
    g = cyclic_group(2)
    return GroupAction(
        g, ("p", "q"),
        {("c0", "p"): "p", ("c0", "q"): "q", ("c1", "p"): "q", ("c1", "q"): "p"},
    )


# ---------------------------------------------------------------------------
# covers


def cover_of_shape(fiber_sizes, split=False):
    """A cover with the given fiber size profile over a base of that length.

    With split=True the total space is decomposed into singleton parts,
    which is the shape that separates constant presheaves from sheaves.
    """
    if not fiber_sizes or any(s < 1 for s in fiber_sizes):
        raise InputError("fiber sizes must be positive")
    e, b, pi = [], [], {}
    for bi, size in enumerate(fiber_sizes):
        base = f"b{bi}"
        b.append(base)
        for j in range(size):
            x = f"e{bi}_{j}"
            e.append(x)
            pi[x] = base
    parts = tuple((x,) for x in e) if split else None
    return Cover(tuple(e), tuple(b), pi, parts)


def refine_cover(cover, extra):
    """A refinement of `cover` that adds `extra[b]` duplicate points over
    each base point b, plus the map r back onto the original points.

    The new points double existing ones: r sends copy `c{b}_{j}` to the
    first point of the fiber over b.  Returns (refined, r).
    """
    fibers = cover.fibers()
    e = list(cover.e)
    pi = dict(cover.pi)
    r = {x: x for x in cover.e}
    for b, count in extra.items():
        if b not in cover.b or count < 0:
            raise InputError(f"bad refinement request over {b!r}")
        for j in range(count):
            x = f"c{b}_{j}"
            e.append(x)
            pi[x] = b
            r[x] = fibers[b][0]
    refined = Cover(tuple(e), cover.b, pi)
    return refined, r


def cover_shapes(max_points=5, max_parts=None):
    """Every fiber profile (partition, largest part first) with at most
    `max_points` total points: one representative per surjection up to
    isomorphism over base and total space.  18 profiles at the default."""
    profiles = []

    def exact(remaining, largest, acc):
        if remaining == 0:
            profiles.append(tuple(acc))
            return
        if max_parts is not None and len(acc) >= max_parts:
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            exact(remaining - part, part, acc)
            acc.pop()

    for total in range(1, max_points + 1):
        exact(total, total, [])
    return profiles


# ---------------------------------------------------------------------------
# simplicial objects with known verdicts


def nerve_object_of_category(c, level_cap=3):
    """The nerve of a category as a set-valued simplicial object: the
    level table of `cat.nerve`, whose level n is the composable strings of
    n morphisms in diagram order (earliest arrow first)."""
    return nerve(c, dim_cap=level_cap).model


def punctured_cech_object():
    """The length-3 truncation of a two-point cover's nerve, with one
    level-3 tuple removed; the canonical gluing map at that level is no
    longer surjective.
    """
    pi = FinMap(("a", "b"), ("*",), {"a": "*", "b": "*"})
    base = cech_nerve(pi, level_cap=3)
    top = base.levels[3]
    r = base.position[3][("a", "b", "a", "b")]
    # level-3 positions after r move down one; s_j never lands on r
    renumber = list(range(r)) + [None] + list(range(r, len(top) - 1))
    return SimplicialObject(
        3,
        base.levels[:3] + [top[:r] + top[r + 1:]],
        base.faces[:3] + [[row[:r] + row[r + 1:] for row in base.faces[3]]],
        base.degs[:2] + [[[renumber[q] for q in row] for row in base.degs[2]]],
    )
