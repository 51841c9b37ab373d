"""Finite categories, strict finite 2-categories, and their nerves.

Composition is written `compose(g, f)` for "g after f" throughout.  The
nerve takes level n to composable strings (f_1, ..., f_n) read left to
right: d_0 drops the first arrow, d_n the last, inner d_i composes the
two arrows meeting at vertex i, and s_i inserts an identity there.

2-categories are strict: 1-cell composition is associative on the nose
and 2-cells carry vertical and horizontal composition satisfying the
middle-four interchange.  Their nerve remembers composition up to a
chosen 2-cell witness per triangle and is 3-coskeletal (Duskin, TAC
2002), so levels >= 3 come from the boundary join that the horn census
also runs (`SimplicialObject.join`).

`FiniteCategory.validate` is the one checker of composition laws:
identities (one per object, keyed by objects only), a table entry for
exactly the composable pairs landing on a morphism with the right
endpoints, the unit laws and associativity.  Associativity is checked on
generators only (Light's test; Clifford and Preston, *The Algebraic
Theory of Semigroups* I, 1961, sec. 1.2).  Call g good when
h o (g o f) = (h o g) o f for every composable h and f; that is one row
comparison per h: h o - applied to the row of g o f over all f must give
the row of (h o g) o f.  Identities are good by the unit laws, and a
composite of two good morphisms is good (four uses of the law), so every
morphism is good once the generators are and their closure reaches every
morphism.  Only when a generator fails does the row scan over every
composable pair (h, g) run, to name the first failing triple.
`Finite2Category.validate` runs it on the vertical category (1-cells and
`vcompose`) and the horizontal category (0-cells and `hcompose`), runs
`Functor.validate` on source, target and `two_identity`, and checks
interchange; each failure names its structure.  `FiniteGroup` (in
`groupoid`) checks its table as a one-object category.

Functors c -> d are the simplicial maps of the 2-truncated nerves
N(c) -> N(d), since the nerve is fully faithful and 2-coskeletal, so
`enumerate_functors` runs the one map search of `sset`.

The two quotient constructions at the bottom go the other way, from a
simplicial set to a category: the path category modulo triangle
relations (exact, via a finite word universe with a stability
certificate) and the homotopy category of edge classes (requires inner
2-horn fillers; every independence the construction relies on is checked
instance by instance rather than assumed).
"""

import itertools
import operator
from dataclasses import dataclass, field

from .config import DEFAULT_BUDGET, DEFAULT_DIM_CAP, DEFAULT_PATH_BUDGET
from .errors import CapacityError, ConsistencyError, InputError, ValidationError
from .sset import (
    LevelModel,
    SimplexRef,
    SimplicialObject,
    SimplicialSet,
    enumerate_maps,
    product_structure,
    standard_ref_of_vertices,
    standard_simplex,
    vertices_of_standard_ref,
)


class UnionFind:
    """Disjoint classes of comparable items; each root is its class's least member."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def _within(structure, check):
    """Run `check`, naming `structure` in any ValidationError it raises."""
    try:
        check()
    except ValidationError as exc:
        raise ValidationError(f"{structure}: {exc}") from None


class _Rows:
    """A category's composition table as rows, once its entries are checked.

    into[x] and out[x] list the morphisms ending and starting at x, in id
    order, so (g, f) is composable exactly when f is in into[src g];
    place[f] is the index of f in into[tgt f], and after[g] is the row of
    g o f over f in into[src g].
    """

    def __init__(self, c):
        mor, table = c.mor, c.compose_table
        self.mor, self.mors = mor, sorted(mor)
        into = self.into = {x: [] for x in c.objects}
        out = self.out = {x: [] for x in c.objects}
        for m in self.mors:
            out[mor[m][0]].append(m)
            into[mor[m][1]].append(m)
        self.place = {m: k for ms in into.values() for k, m in enumerate(ms)}
        after, pairs, missing = {}, 0, object()
        for g in self.mors:
            s, t = mor[g]
            row = after[g] = []
            for f in into[s]:
                gf = table.get((g, f), missing)
                if gf is missing:
                    raise ValidationError(
                        f"composition table wrong at ({g!r}, {f!r}): missing entry"
                    )
                if gf not in mor:
                    raise ValidationError(f"({g!r}, {f!r}) composes to unknown {gf!r}")
                if mor[gf] != (mor[f][0], t):
                    raise ValidationError(f"({g!r}, {f!r}) composes with wrong endpoints")
                row.append(gf)
            pairs += len(row)
        if len(table) != pairs:
            g, f = min(
                (g, f) for g, f in table
                if g not in mor or f not in mor or mor[f][1] != mor[g][0]
            )
            raise ValidationError(
                f"composition table wrong at ({g!r}, {f!r}): spurious entry"
            )
        self.after = after

    def generators(self, identity):
        """Morphisms whose closure is every morphism: from the identities,
        compose what is reached with the generators on either side.

        Per component, the arrows of a BFS spanning tree, each followed by
        its inverse where the table shows both composites to be identities,
        then the endomorphisms of the root; last every morphism in id order.
        A candidate joins only if the closure has not reached it.  The
        closure reads the rows alone, assuming neither associativity nor
        inverses, and costs O(|mor| |generators|).
        """
        mor, into, out, place, after = self.mor, self.into, self.out, self.place, self.after
        gens, reached = [], {identity[x] for x in into}
        ending, starting = {x: [] for x in into}, {x: [] for x in into}

        def join(g):
            if g in reached:
                return
            gens.append(g)
            s, t = mor[g]
            ending[t].append(g)
            starting[s].append(g)
            k = place[g]
            new = {g, *[gx for x, gx in zip(into[s], after[g]) if x in reached],
                   *[after[x][k] for x in out[t] if x in reached]}
            while new:
                reached.update(new)
                found = []
                for y in new:
                    s, t = mor[y]
                    row, k = after[y], place[y]
                    found += [row[place[x]] for x in ending[s]]
                    found += [after[x][k] for x in starting[t]]
                new = set(found) - reached

        seen = set()
        for root in into:
            if root in seen:
                continue
            seen.add(root)
            queue = [root]
            for y in queue:
                for m in out[y] + into[y]:
                    s, t = mor[m]
                    z = t if s == y else s
                    if z in seen:
                        continue
                    seen.add(z)
                    queue.append(z)
                    join(m)
                    for u in out[t]:
                        if (mor[u][1] == s and after[u][place[m]] == identity[s]
                                and after[m][place[u]] == identity[t]):
                            join(u)
                            break
            for m in out[root]:
                if mor[m][1] == root:
                    join(m)
        for m in self.mors:
            join(m)
        return gens

    def good(self, g):
        """h o (g o f) = (h o g) o f for every composable h and f: for each h
        after g, h o - maps the row of g onto the row of h o g."""
        place, after = self.place, self.after
        at, k = [place[x] for x in after[g]], place[g]
        return all(
            list(map(after[h].__getitem__, at)) == after[after[h][k]]
            for h in self.out[self.mor[g][1]]
        )

    def first_failure(self):
        """The first (h, g, f) in id order with h o (g o f) != (h o g) o f, or
        None: one row comparison per composable pair (h, g), h o - applied
        to the row of g against the row of h o g."""
        mor, into, after = self.mor, self.into, self.after
        for h in self.mors:
            gs = into[mor[h][0]]
            post = dict(zip(gs, after[h])).__getitem__
            for g, hg in zip(gs, after[h]):
                if list(map(post, after[g])) != after[hg]:
                    return next(
                        (h, g, f)
                        for f, x, y in zip(into[mor[g][0]], map(post, after[g]), after[hg])
                        if x != y
                    )
        return None


class FiniteCategory:
    """Objects, morphisms with endpoints, identities, full composition table."""

    def __init__(self, objects, morphisms, identity, compose, check=True):
        self.objects = tuple(sorted(objects))
        self.mor = {m: (s, t) for m, (s, t) in morphisms.items()}
        self.identity = dict(identity)
        self.compose_table = dict(compose)
        self._hom = {}
        self._nerve2 = None  # the 2-truncated nerve, built by enumerate_functors
        if check:
            self.validate()

    def src(self, f):
        return self.mor[f][0]

    def tgt(self, f):
        return self.mor[f][1]

    def compose(self, g, f):
        if self.mor[f][1] != self.mor[g][0]:
            raise InputError(f"{g!r} o {f!r} not composable")
        return self.compose_table[(g, f)]

    def hom(self, x, y):
        if not self._hom:
            for m in sorted(self.mor):
                self._hom.setdefault(self.mor[m], []).append(m)
        return tuple(self._hom.get((x, y), ()))

    def validate(self):
        """Identities, the table's entries and endpoints, the unit laws,
        then associativity by Light's test (see the module docstring)."""
        if len(set(self.objects)) != len(self.objects):
            raise ValidationError("duplicate object ids")
        for m, (s, t) in self.mor.items():
            if s not in self.objects or t not in self.objects:
                raise ValidationError(f"morphism {m!r} has endpoint outside objects")
        for x in self.objects:
            i = self.identity.get(x)
            if i is None or i not in self.mor or self.mor[i] != (x, x):
                raise ValidationError(f"bad identity at {x!r}")
        objects = set(self.objects)
        for x in self.identity:
            if x not in objects:
                raise ValidationError(f"identity keyed by unknown object {x!r}")
        rows = _Rows(self)
        table = self.compose_table
        for f in rows.mors:
            s, t = self.mor[f]
            if table[(f, self.identity[s])] != f:
                raise ValidationError(f"right unit fails at {f!r}")
            if table[(self.identity[t], f)] != f:
                raise ValidationError(f"left unit fails at {f!r}")
        if not all(map(rows.good, rows.generators(self.identity))):
            h, g, f = rows.first_failure()
            raise ValidationError(f"associativity fails at ({h!r},{g!r},{f!r})")

    def inverse(self, f):
        s, t = self.mor[f]
        for g in self.hom(t, s):
            if (
                self.compose_table[(g, f)] == self.identity[s]
                and self.compose_table[(f, g)] == self.identity[t]
            ):
                return g
        return None

    def is_groupoid(self):
        return all(self.inverse(f) is not None for f in self.mor)

    def __repr__(self):
        return f"FiniteCategory({len(self.objects)} objects, {len(self.mor)} morphisms)"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteCategory)
            and self.objects == other.objects
            and self.mor == other.mor
            and self.identity == other.identity
            and self.compose_table == other.compose_table
        )


@dataclass
class Functor:
    src: FiniteCategory
    tgt: FiniteCategory
    on_objects: dict
    on_morphisms: dict

    def validate(self):
        for x in self.src.objects:
            if self.on_objects.get(x) not in self.tgt.objects:
                raise ValidationError(f"object {x!r} has no valid image")
        for m, (s, t) in self.src.mor.items():
            fm = self.on_morphisms.get(m)
            if fm not in self.tgt.mor:
                raise ValidationError(f"morphism {m!r} has no valid image")
            if self.tgt.mor[fm] != (self.on_objects[s], self.on_objects[t]):
                raise ValidationError(f"image of {m!r} has wrong endpoints")
        for x in self.src.objects:
            if self.on_morphisms[self.src.identity[x]] != self.tgt.identity[self.on_objects[x]]:
                raise ValidationError(f"identity at {x!r} not preserved")
        for (g, f), gf in self.src.compose_table.items():
            if (
                self.tgt.compose_table[(self.on_morphisms[g], self.on_morphisms[f])]
                != self.on_morphisms[gf]
            ):
                raise ValidationError(f"composition ({g!r},{f!r}) not preserved")

    def is_isomorphism(self):
        return (
            sorted(self.on_objects.values()) == list(self.tgt.objects)
            and len(set(self.on_morphisms.values())) == len(self.tgt.mor)
            and len(self.on_morphisms) == len(self.tgt.mor)
        )


def enumerate_functors(c, d, budget=DEFAULT_BUDGET):
    """All functors c -> d, ordered by image tuples.

    The nerve is fully faithful and 2-coskeletal, so these are the
    simplicial maps N(c) -> N(d) of the 2-truncated nerves, found by
    `enumerate_maps`: the budget counts its trials, and a CapacityError
    carries the number of functors found as partial.
    """
    for cat in (c, d):
        if cat._nerve2 is None:
            cat._nerve2 = nerve(cat, dim_cap=2)
    nc, nd = c._nerve2, d._nerve2
    # a nerve's level model is in its set's order
    elem = {ref: x for n in (0, 1) for x, ref in zip(nd.model.levels[n], nd.sset.simplices(n))}
    vertex = {x: nc.model.ref_of[(0, x)].gen for x in c.objects}
    edge = {m: nc.model.ref_of[(1, (m,))] for m in c.mor}
    out = []
    for f in enumerate_maps(nc.sset, nd.sset, budget=budget):
        obj = {x: elem[f.assignment[vertex[x]]] for x in c.objects}
        mor = {}
        for m, (s, _) in c.mor.items():
            ref = edge[m]
            mor[m] = d.identity[obj[s]] if ref.degs else elem[f.assignment[ref.gen]][0]
        out.append(Functor(c, d, obj, mor))
    objs, mors = list(c.objects), sorted(c.mor)
    out.sort(key=lambda F: (tuple(F.on_objects[x] for x in objs), tuple(F.on_morphisms[m] for m in mors)))
    return out


def categories_isomorphic(c, d, budget=DEFAULT_BUDGET):
    """An isomorphism witness c -> d, or None (exhaustive)."""
    if len(c.objects) != len(d.objects) or len(c.mor) != len(d.mor):
        return None
    profile = lambda cat: sorted(
        len(cat.hom(x, y)) for x in cat.objects for y in cat.objects
    )
    if profile(c) != profile(d):
        return None
    for F in enumerate_functors(c, d, budget=budget):
        if F.is_isomorphism():
            return F
    return None


# -- the nerve ----------------------------------------------------------------


@dataclass
class NerveResult:
    sset: SimplicialSet
    category: FiniteCategory
    model: LevelModel = field(repr=False)


def nerve(c, dim_cap=DEFAULT_DIM_CAP):
    """Nerve of a finite category as a truncated simplicial set.

    Level n >= 2 lists each string of level n - 1 followed by every arrow
    out of its target, in id order, so a string is its parent (d_n) and its
    last arrow, and a string's children are contiguous: child g of q sits at
    first[n][q] + rank[g], rank[g] the place of g among the arrows out of
    its source.  d_i, i < n - 1, is the child of d_i of the parent; d_{n-1}
    composes the last two arrows; s_i inserts an identity.
    """
    objects, mors = list(c.objects), sorted(c.mor)
    at_obj = {x: v for v, x in enumerate(objects)}
    at_mor = {m: k for k, m in enumerate(mors)}
    src = [at_obj[c.mor[m][0]] for m in mors]
    tgt = [at_obj[c.mor[m][1]] for m in mors]
    ident = [at_mor[c.identity[x]] for x in objects]
    out = [[k for k, v in enumerate(src) if v == u] for u in range(len(objects))]
    rank = [out[v].index(k) for k, v in enumerate(src)]
    comp = {(at_mor[g], at_mor[f]): at_mor[h] for (g, f), h in c.compose_table.items()}
    # a level-1 string's parent is its source; first[1] is never read
    levels, parent, first = [objects, [(m,) for m in mors]], [None, src], [None, None]
    last = [None, list(range(len(mors)))]
    for n in range(2, dim_cap + 1):
        arrows = [out[tgt[g]] for g in last[n - 1]]
        first.append(list(itertools.accumulate(map(len, arrows), initial=0)))
        parent.append([q for q, gs in enumerate(arrows) for _ in gs])
        last.append([g for gs in arrows for g in gs])
        levels.append([levels[n - 1][q] + (mors[g],) for q, g in zip(parent[n], last[n])])

    def child(n, qs, gs):
        """Positions in level n of the strings with parents qs and last arrows gs."""
        return list(gs) if n == 1 else [first[n][q] + rank[g] for q, g in zip(qs, gs)]

    faces, degs = [(), [tgt, src]], [[ident]]
    for n in range(2, dim_cap + 1):
        par, arrows, below = parent[n], last[n], faces[n - 1]
        composites = [comp[(g, last[n - 1][q])] for q, g in zip(par, arrows)]
        faces.append([child(n - 1, [below[i][q] for q in par], arrows) for i in range(n - 1)]
                     + [child(n - 1, [below[n - 1][q] for q in par], composites), par])
        ids = [ident[tgt[g]] for g in last[n - 1]]
        degs.append([child(n, [degs[n - 2][i][q] for q in parent[n - 1]], last[n - 1])
                     for i in range(n - 1)] + [child(n, range(len(ids)), ids)])
    model = LevelModel(dim_cap, levels[:dim_cap + 1], faces[:dim_cap + 1], degs[:dim_cap],
                       namer=lambda n, x: str(x) if n == 0 else "|".join(x))
    return NerveResult(model.sset, c, model)


# -- strict 2-categories -------------------------------------------------------


class Finite2Category:
    """A strict finite 2-category.

    two_cells maps a 2-cell id to its (source, target) pair of parallel
    1-cells.  vcompose is indexed (b, a) for "b after a" vertically,
    hcompose (b, a) for b left of a (b's 1-cell sources start where a's
    end).  Nothing here requires 2-cells to be invertible; that is a
    property (`all_two_invertible`) that downstream checks consult.
    """

    def __init__(self, objects, one_cells, identity, compose, two_cells,
                 two_identity, vcompose, hcompose, check=True):
        self.cat = FiniteCategory(objects, one_cells, identity, compose, check=check)
        self.objects = self.cat.objects
        self.one = self.cat.mor
        self.two = dict(two_cells)
        self.two_identity = dict(two_identity)
        self.vcompose = dict(vcompose)
        self.hcompose = dict(hcompose)
        self._two_hom = {}
        if check:
            self.validate()

    def two_hom(self, f, g):
        """2-cells f => g (f, g parallel 1-cells)."""
        if not self._two_hom:
            for a in sorted(self.two):
                self._two_hom.setdefault(self.two[a], []).append(a)
        return tuple(self._two_hom.get((f, g), ()))

    def two_inverse(self, a):
        f, g = self.two[a]
        for b in self.two_hom(g, f):
            if (
                self.vcompose[(b, a)] == self.two_identity[f]
                and self.vcompose[(a, b)] == self.two_identity[g]
            ):
                return b
        return None

    def all_two_invertible(self):
        return all(self.two_inverse(a) is not None for a in self.two)

    def validate(self):
        """Vertical and horizontal categories, three functors, interchange
        (see the module docstring); each failure names its structure."""
        one, two, v, h = self.one, self.two, self.vcompose, self.hcompose
        vertical = FiniteCategory(one, two, self.two_identity, v, check=False)
        _within("vertical", vertical.validate)
        horizontal = FiniteCategory(
            self.objects,
            {a: one[f] for a, (f, g) in two.items()},
            {x: self.two_identity[i] for x, i in self.cat.identity.items()},
            h,
            check=False,
        )
        _within("horizontal", horizontal.validate)
        objects = {x: x for x in self.objects}
        for name, functor in (
            ("source functor", Functor(horizontal, self.cat, objects,
                                       {a: f for a, (f, g) in two.items()})),
            ("target functor", Functor(horizontal, self.cat, objects,
                                       {a: g for a, (f, g) in two.items()})),
            ("two_identity functor", Functor(self.cat, horizontal, objects,
                                             self.two_identity)),
        ):
            _within(name, functor.validate)
        # middle-four interchange: (b2 . b1) * (a2 . a1) = (b2 * a2) . (b1 * a1)
        for (b2, b1), b in v.items():
            for (a2, a1), a in v.items():
                if (b2, a2) in h and h[(b, a)] != v[(h[(b2, a2)], h[(b1, a1)])]:
                    raise ValidationError(
                        f"interchange fails at ({b2!r},{b1!r}) * ({a2!r},{a1!r})"
                    )

    def __repr__(self):
        return (
            f"Finite2Category({len(self.objects)} objects, {len(self.one)} 1-cells,"
            f" {len(self.two)} 2-cells)"
        )


def two_category_from_category(c):
    """A category viewed as a 2-category with only identity 2-cells."""
    two = {f"={f}": (f, f) for f in c.mor}
    two_id = {f: f"={f}" for f in c.mor}
    vcomp = {}
    for a in two:
        vcomp[(a, a)] = a
    hcomp = {
        (two_id[g], two_id[f]): two_id[gf] for (g, f), gf in c.compose_table.items()
    }
    return Finite2Category(
        c.objects, c.mor, c.identity, c.compose_table, two, two_id, vcomp, hcomp
    )


def one_object_two_group(a_group):
    """One object, one 1-cell, 2-cells an abelian group under both compositions."""
    two = {f"a{x}": ("1", "1") for x in a_group.elements}
    comp = {
        (f"a{y}", f"a{x}"): f"a{a_group.mul[(y, x)]}"
        for y in a_group.elements
        for x in a_group.elements
    }
    return Finite2Category(
        ("*",), {"1": ("*", "*")}, {"*": "1"}, {("1", "1"): "1"},
        two, {"1": f"a{a_group.identity()}"}, dict(comp), dict(comp),
    )


def split_two_group(g_group, a_group):
    """One object; 1-cells a group G, 2-cells g => g a copy of abelian A.

    Horizontal composition multiplies both coordinates; the action of G on
    A is trivial, so interchange reduces to commutativity of A.
    """
    ones = {f"g{x}": ("*", "*") for x in g_group.elements}
    comp = {
        (f"g{y}", f"g{x}"): f"g{g_group.mul[(y, x)]}"
        for y in g_group.elements
        for x in g_group.elements
    }
    two = {
        f"({x},{a})": (f"g{x}", f"g{x}")
        for x in g_group.elements
        for a in a_group.elements
    }
    vcomp = {}
    hcomp = {}
    for x in g_group.elements:
        for a in a_group.elements:
            for b in a_group.elements:
                vcomp[(f"({x},{b})", f"({x},{a})")] = f"({x},{a_group.mul[(b, a)]})"
    for y in g_group.elements:
        for x in g_group.elements:
            for b in a_group.elements:
                for a in a_group.elements:
                    hcomp[(f"({y},{b})", f"({x},{a})")] = (
                        f"({g_group.mul[(y, x)]},{a_group.mul[(b, a)]})"
                    )
    e = a_group.identity()
    return Finite2Category(
        ("*",), ones, {"*": f"g{g_group.identity()}"},
        comp, two, {f"g{x}": f"({x},{e})" for x in g_group.elements}, vcomp, hcomp,
    )


def _walking(two_cell_invertible):
    objects = ("x", "y")
    ones = {"ix": ("x", "x"), "iy": ("y", "y"), "u": ("x", "y"), "v": ("x", "y")}
    identity = {"x": "ix", "y": "iy"}
    comp = {}
    for g, (gs, gt) in ones.items():
        for f, (fs, ft) in ones.items():
            if ft != gs:
                continue
            comp[(g, f)] = f if g in ("ix", "iy") else (g if f in ("ix", "iy") else None)
    if None in comp.values():
        raise ConsistencyError("walking 2-cell: a 1-cell composite is undefined")
    two = {"=ix": ("ix", "ix"), "=iy": ("iy", "iy"), "=u": ("u", "u"), "=v": ("v", "v"),
           "m": ("u", "v")}
    two_id = {"ix": "=ix", "iy": "=iy", "u": "=u", "v": "=v"}
    if two_cell_invertible:
        two["w"] = ("v", "u")
    cells = two
    vcomp = {}
    for b, (bs, bt) in cells.items():
        for a, (as_, at) in cells.items():
            if at != bs:
                continue
            if a.startswith("="):
                vcomp[(b, a)] = b
            elif b.startswith("="):
                vcomp[(b, a)] = a
            else:
                # m then w or w then m: the two inverse laws
                vcomp[(b, a)] = "=u" if (b, a) == ("w", "m") else "=v"
    hcomp = {}
    for b, (bs, bt) in cells.items():
        for a, (as_, at) in cells.items():
            if ones[as_][1] != ones[bs][0]:
                continue
            if a.startswith("=") and as_ in ("ix",):
                hcomp[(b, a)] = b
            elif b.startswith("=") and bs in ("iy",):
                hcomp[(b, a)] = a
            else:
                raise ConsistencyError("walking 2-cell: unexpected horizontal pair")
    return Finite2Category(objects, ones, identity, comp, two, two_id, vcomp, hcomp)


def walking_invertible_two_cell():
    """Two parallel 1-cells joined by an invertible 2-cell."""
    return _walking(True)


def walking_two_cell():
    """Two parallel 1-cells joined by a single non-invertible 2-cell."""
    return _walking(False)


# -- the Duskin-style nerve of a strict 2-category ------------------------------


@dataclass
class DuskinResult:
    sset: SimplicialSet
    two_category: Finite2Category
    model: LevelModel = field(repr=False)


def _cells_in_order(n):
    """Edges and triangles of the n-simplex, each triangle after its edges."""
    cells = []
    for k in range(1, n + 1):
        for i in range(k):
            cells.append((i, k))
        for j in range(k):
            for i in range(j):
                cells.append((i, j, k))
    return cells


def _tetra_holds(c2, edges, tris, quad):
    i, j, k, l = quad
    route1 = c2.vcompose[(
        tris[(i, k, l)],
        c2.hcompose[(c2.two_identity[edges[(k, l)]], tris[(i, j, k)])],
    )]
    route2 = c2.vcompose[(
        tris[(i, j, l)],
        c2.hcompose[(tris[(j, k, l)], c2.two_identity[edges[(i, j)]])],
    )]
    return route1 == route2


def _duskin_table(c2, dim_cap, budget):
    """The Duskin nerve through `dim_cap`: a SimplicialObject and the value
    of every element, both in level order.

    Levels 0-2 and their rows are read off the 2-category; each level
    n >= 3 is the boundary join over level n - 1 (level 3 filtered by
    `_tetra_holds`), whose elements are their own face tuples and so their
    own face rows; s_j x is looked up by its faces.
    A value (edges, 2-cells) is read through `restriction_table` off a face
    holding each cell; a level is sorted by vertices, then labels in
    `_cells_in_order(n)` order.  One budget of trials covers the build, and
    a CapacityError carries the simplices found at the level that ran out.
    """
    one, ident, id2 = c2.one, c2.cat.identity, c2.two_identity
    message = f"Duskin nerve exceeded budget {budget}"
    trials = 0
    triangles = []
    for f in sorted(one) if dim_cap >= 2 else ():
        a, b = one[f]
        for c in c2.objects:
            for g in c2.cat.hom(b, c):
                composite = c2.cat.compose_table[(g, f)]
                for e in c2.cat.hom(a, c):
                    for t in c2.two_hom(composite, e):
                        trials += 1
                        if trials > budget:
                            raise CapacityError(message, partial=len(triangles))
                        triangles.append(((f, e, g), (t,)))
    triangles.sort(key=lambda x: (one[x[0][0]] + (one[x[0][2]][1],), x[0], x[1]))
    # d_0 of an edge is its target; d_i of a triangle (f, e, g) is g, e, f;
    # s_0 of a vertex is its identity and s_j of an edge a unit triangle
    cells = sorted(one)
    at0 = {x: v for v, x in enumerate(c2.objects)}
    at1 = {f: k for k, f in enumerate(cells)}
    at2 = {x: p for p, x in enumerate(triangles)}
    cap = min(dim_cap, 2)
    faces = [(), [[at0[one[f][1 - i]] for f in cells] for i in range(2)],
             [[at1[x[0][2 - i]] for x in triangles] for i in range(3)]]
    degs = [[[at1[ident[x]] for x in c2.objects]],
            [[at2.get(((ident[one[f][0]], f, f), (id2[f],))) for f in cells],
             [at2.get(((f, f, ident[one[f][1]]), (id2[f],))) for f in cells]]]
    table = SimplicialObject(
        cap, [c2.objects, cells, triangles], faces[:cap + 1], degs[:cap], check=False
    )
    values = list(table.levels)
    names = values[:2] + [[t for _, (t,) in triangles]]

    def tetrahedron(ys):
        (e0, (t0,)), (_, (t1,)), (_, (t2,)), (e3, (t3,)) = (triangles[y] for y in ys)
        edges = {(0, 1): e3[0], (2, 3): e0[2]}
        tris = {(1, 2, 3): t0, (0, 2, 3): t1, (0, 1, 3): t2, (0, 1, 2): t3}
        return _tetra_holds(c2, edges, tris, (0, 1, 2, 3))

    for n in range(3, dim_cap + 1):
        try:
            tuples, trials = table.join(
                n, range(n + 1), budget, trials, tetrahedron if n == 3 else None
            )
        except CapacityError as exc:
            raise CapacityError(message, partial=exc.partial) from None
        # one key column per vertex, then per cell in `_cells_in_order`
        cells = [(v,) for v in range(n + 1)] + _cells_in_order(n)
        columns = []
        for cell in cells:
            m = next(v for v in range(n + 1) if v not in cell)
            row = table.restriction_table(n - 1, [v - (v > m) for v in cell])
            name = names[len(cell) - 1]
            columns.append([name[row[t[m]]] for t in tuples])
        keys = sorted(zip(*columns, tuples))
        level = [k[-1] for k in keys]
        # an element is its own face tuple, and s_j x is found by its faces
        at = dict(zip(level, range(len(level))))
        fs, ss, below = table.faces[n - 1], table.degs[n - 2], range(len(table.levels[n - 1]))
        deg_rows = [
            [at.get(t) for t in zip(*(
                [ss[j - 1][q] for q in fs[i]] if i < j
                else below if i <= j + 1 else [ss[j][q] for q in fs[i - 1]]
                for i in range(n + 1)
            ))]
            for j in range(n)
        ]
        table.add_level(level, [list(map(operator.itemgetter(i), level)) for i in range(n + 1)],
                        deg_rows)
        edges = operator.itemgetter(
            *(cells.index(c) for c in itertools.combinations(range(n + 1), 2)))
        tris = operator.itemgetter(
            *(cells.index(c) for c in itertools.combinations(range(n + 1), 3)))
        values.append([(edges(k), tris(k)) for k in keys])
    return table, values


def duskin_nerve(c2, dim_cap=DEFAULT_DIM_CAP, budget=DEFAULT_BUDGET):
    """Nerve of a strict 2-category; 3-coskeletal.

    Level 2 collects one 2-cell witness per triangle of 1-cells; level 3
    keeps the compatible quadruples of triangles whose two contraction
    routes agree; each higher level is every compatible tuple of faces,
    found by the boundary join (`_duskin_table`).  An n-simplex, n >= 2,
    is its edge and triangle labels in lex order.  The budget counts the
    candidate triangles and join trials of the whole build.
    """
    table, values = _duskin_table(c2, dim_cap, budget)

    def namer(n, x):
        if n < 2:
            return str(x)
        e, t = x
        return "{" + ",".join(e) + "|" + ",".join(t) + "}"

    model = LevelModel(dim_cap, values, table.faces, table.degs, namer=namer)
    return DuskinResult(model.sset, c2, model)


# -- path category of a simplicial set, exactly ---------------------------------


@dataclass
class PathCategoryResult:
    category: FiniteCategory
    object_of_vertex: dict
    morphism_of_edge: dict
    universe_length: int


def _edge_word(ref):
    """A 1-simplex as a path word: degenerate edges vanish."""
    return () if ref.degs else (ref.gen,)


def fundamental_category(x, path_budget=DEFAULT_PATH_BUDGET, max_length=32):
    """Free category on the edges of x modulo its triangle relations.

    Works over the finite universe of composable edge words up to a length
    bound, with the congruence generated by the triangle relations applied
    in every position.  Accepts the answer only when (a) the quotient is
    closed under concatenation inside the universe with a representative-
    independent result and (b) the classes are unchanged when the bound
    grows by one.  Raises CapacityError when the universe outgrows
    `path_budget` or the bound outgrows `max_length` first - e.g. a loop
    with no relations has no finite quotient at all.  Its partial is the
    longest word length whose universe was built.
    """
    verts = list(x.generators(0))
    edges = list(x.generators(1))
    esrc = {e: x.gen_faces[e][1].gen for e in edges}
    etgt = {e: x.gen_faces[e][0].gen for e in edges}
    rules = []
    for g in x.generators(2):
        f0, f1, f2 = (x.gen_faces[g][i] for i in range(3))
        lhs = _edge_word(f2) + _edge_word(f0)
        rhs = _edge_word(f1)
        if lhs != rhs:
            rules.append((_vertex_of(x, f2), lhs, rhs))

    def word_tgt(w):
        v, es = w
        return v if not es else etgt[es[-1]]

    def grow(upto):
        words = [[(v, ()) for v in verts]]
        total = len(verts)
        for _ in range(upto):
            nxt = []
            for w in words[-1]:
                for e in edges:
                    if esrc[e] == word_tgt(w):
                        nxt.append((w[0], w[1] + (e,)))
            total += len(nxt)
            if total > path_budget:
                raise CapacityError(
                    f"path universe exceeded budget {path_budget};"
                    " the quotient category may be infinite",
                    partial=len(words) - 1,
                )
            words.append(nxt)
        return [w for level in words for w in level]

    def vertex_at(w, p):
        v, es = w
        return v if p == 0 else etgt[es[p - 1]]

    def congruence(universe):
        index = {w: i for i, w in enumerate(universe)}
        classes = UnionFind(range(len(universe)))
        for w in universe:
            v0, es = w
            for (v, lhs, rhs) in rules:
                for (a, b) in ((lhs, rhs), (rhs, lhs)):
                    la = len(a)
                    for p in range(len(es) - la + 1):
                        if es[p : p + la] != a:
                            continue
                        if la == 0 and vertex_at(w, p) != v:
                            continue
                        w2 = (v0, es[:p] + b + es[p + la :])
                        j = index.get(w2)
                        if j is not None:
                            classes.union(index[w], j)
        return index, classes.find

    length = 2
    while True:
        if length > max_length:
            raise CapacityError(
                f"path quotient not stable within length bound {max_length};"
                " the quotient category may be infinite",
                partial=length,
            )
        universe = grow(length)
        index, find = congruence(universe)
        probe = grow(length + 1)
        pindex, pfind = congruence(probe)
        stable = True
        seen = {}
        for w in universe:
            r = pfind(pindex[w])
            s = find(index[w])
            if r in seen and seen[r] != s:
                stable = False
                break
            seen[r] = s
        if stable:
            for w in probe:
                if len(w[1]) == length + 1 and pfind(pindex[w]) not in seen:
                    stable = False
                    break
        composites = {}
        if stable:
            classes = {}
            for w in universe:
                classes.setdefault(find(index[w]), []).append(w)
            ok = True
            for r1, ws1 in classes.items():
                for r2, ws2 in classes.items():
                    if word_tgt(min(ws1)) != min(ws2)[0]:
                        continue
                    found = set()
                    for w1 in ws1:
                        for w2 in ws2:
                            if word_tgt(w1) != w2[0]:
                                continue
                            glued = (w1[0], w1[1] + w2[1])
                            if glued in index:
                                found.add(find(index[glued]))
                    # a class pair with no in-universe gluing, or with a
                    # representative-dependent one, just needs a longer bound
                    if len(found) != 1:
                        ok = False
                        break
                    composites[(r1, r2)] = next(iter(found))
                if not ok:
                    break
            if ok:
                break
        length += 1

    classes = {}
    for w in universe:
        classes.setdefault(find(index[w]), []).append(w)
    reps = {r: min(ws, key=lambda w: (len(w[1]), w[1], w[0])) for r, ws in classes.items()}

    def name(r):
        v, es = reps[r]
        return f"id_{v}" if not es else "[" + ".".join(es) + "]"

    names = {r: name(r) for r in classes}
    if len(set(names.values())) != len(names):
        raise ConsistencyError("path class naming collided")
    mor = {names[r]: (reps[r][0], word_tgt(reps[r])) for r in classes}
    identity = {}
    for v in verts:
        identity[v] = names[find(index[(v, ())])]
    table = {}
    for (r1, r2), r in composites.items():
        table[(names[r2], names[r1])] = names[r]
    cat = FiniteCategory(verts, mor, identity, table)
    mor_of_edge = {e: names[find(index[(esrc[e], (e,))])] for e in edges}
    return PathCategoryResult(cat, {v: v for v in verts}, mor_of_edge, length)


def _vertex_of(x, ref):
    """Source vertex of a possibly-degenerate edge reference."""
    if ref.degs:
        return ref.gen
    return x.gen_faces[ref.gen][1].gen


# -- homotopy category of a weak Kan complex ------------------------------------


@dataclass
class HomotopyCategoryResult:
    category: FiniteCategory
    class_of_edge: dict
    relation_pairs: int


def homotopy_category(x):
    """Edge classes under the 2-simplex homotopy relation, composed by
    inner-horn filling.

    Every use of a filler is cross-checked over all fillers and all
    representatives; any disagreement raises ConsistencyError rather than
    silently picking one.  Missing inner fillers raise InputError: the
    construction needs them.
    """
    if x.dim_cap < 2:
        raise InputError("homotopy category needs 2-simplices")
    # edges and vertices by position in x's level table; a 2-simplex is
    # known by its face triple (d0, d1, d2) of edge positions
    table = x.table(2)
    edges = table.levels[1]
    vertex = [v.gen for v in table.levels[0]]
    tri = table.face_index(2)
    ends = list(zip(table.faces[1][1], table.faces[1][0]))
    s0 = table.degs[0][0]
    every = range(len(edges))

    def homotopic(f, g):
        return ends[f] == ends[g] and (s0[ends[f][1]], g, f) in tri

    # the relation must already be an equivalence relation on each hom-set
    pairs = 0
    linked = UnionFind(every)
    find = linked.find
    for f in every:
        if not homotopic(f, f):
            raise InputError(f"homotopy relation not reflexive at {edges[f]}; missing s1-degeneracies")
    for f in every:
        for g in every:
            if ends[f] != ends[g]:
                continue
            fg, gf = homotopic(f, g), homotopic(g, f)
            if fg != gf:
                raise ConsistencyError(f"homotopy relation not symmetric at ({edges[f]}, {edges[g]})")
            if fg:
                pairs += 1
                linked.union(f, g)
    # transitivity: union-find closure must not outrun the raw relation
    for f in every:
        for g in every:
            if ends[f] == ends[g] and find(f) == find(g) and not homotopic(f, g):
                raise ConsistencyError(
                    f"homotopy relation not transitive: ({edges[f]}, {edges[g]}) linked but unrelated"
                )

    classes = {}
    for f in every:
        classes.setdefault(find(f), []).append(f)
    rep = {r: min(fs, key=edges.__getitem__) for r, fs in classes.items()}
    name = {r: str(edges[rep[r]]) for r in classes}

    # the 2-simplices over each composable pair (d2, d0), and their d1
    over_pair, d1 = table.face_index(2, (2, 0)), table.faces[2][1]
    comp = {}
    for r2, gs in classes.items():
        for r1, fs in classes.items():
            if ends[rep[r1]][1] != ends[rep[r2]][0]:
                continue
            found = set()
            for f in fs:
                for g in gs:
                    outs = over_pair.get((f, g))
                    if not outs:
                        raise InputError(
                            f"no inner 2-horn filler for ({edges[f]}, {edges[g]}); not a weak Kan complex"
                        )
                    found.update(find(d1[p]) for p in outs)
            if len(found) > 1:
                raise ConsistencyError(
                    f"composite of ({edges[rep[r1]]}, {edges[rep[r2]]}) depends on the filler chosen"
                )
            comp[(name[r2], name[r1])] = name[next(iter(found))]

    mor = {name[r]: tuple(vertex[v] for v in ends[rep[r]]) for r in classes}
    identity = {v: name[find(s0[p])] for p, v in enumerate(vertex)}
    cat = FiniteCategory(vertex, mor, identity, comp)
    return HomotopyCategoryResult(cat, {f: name[find(p)] for p, f in enumerate(edges)}, pairs)


# -- simplicial mapping spaces ---------------------------------------------------


def mapping_space(x, y, dim_cap=2, pin=None, budget=DEFAULT_BUDGET):
    """The simplicial set with level n the maps x * standard n-simplex -> y.

    `pin` optionally fixes images of chosen vertices of x (uniformly across
    the cylinder), e.g. to carve out path components of the space of maps.
    Faces and degeneracies precompose with the evident cylinder inclusions
    and collapses.  Returns a LevelModel; elements are SimplicialMap values.
    The target's dim_cap must be at least the source's: maps are only
    enumerated up to y.dim_cap, so the faces of a cylinder map could not
    be found otherwise.
    """
    if y.dim_cap < x.dim_cap:
        raise InputError(
            f"mapping_space needs the target's dim_cap {y.dim_cap} to be at least"
            f" the source's dim_cap {x.dim_cap}"
        )
    prods = [
        product_structure(x, standard_simplex(n, dim_cap=max(x.dim_cap, n)))
        for n in range(dim_cap + 1)
    ]

    def fixed_for(n):
        if not pin:
            return None
        p = prods[n]
        fixed = {}
        for xv, img in pin.items():
            for j in range(n + 1):
                g = p.model.ref_of[(0, (SimplexRef(xv), SimplexRef(str(j))))].gen
                fixed[g] = img
        return fixed

    levels = [
        enumerate_maps(prods[n].sset, y, budget=budget, fixed=fixed_for(n))
        for n in range(dim_cap + 1)
    ]
    # each map as the positions in y's table of the images of its generators
    table = y.table(x.dim_cap)
    gens = [list(p.sset.all_generators()) for p in prods]
    keys = [
        [tuple(table.position[p.sset.gen_dim[g]][f.assignment[g]] for g in gs) for f in level]
        for p, gs, level in zip(prods, gens, levels)
    ]

    def rows(n_from, n_to, alpha):
        """The position in level n_from of f o (id * alpha), for each f of
        level n_to.  A generator of the cylinder of n_from goes to a simplex
        of the cylinder of n_to, a generator under a degeneracy word, so its
        image is read off f's key and the degeneracy rows of y's table."""
        p_from, p_to = prods[n_from], prods[n_to]
        slot = {g: k for k, g in enumerate(gens[n_to])}
        recipe = []
        for g in gens[n_from]:
            rx, ra = p_from.pair_of_gen(g)
            verts = vertices_of_standard_ref(p_from.right, ra)
            moved = standard_ref_of_vertices(tuple(alpha[v] for v in verts))
            dim = p_from.sset.gen_dim[g]
            ref = p_to.model.ref_of[(dim, (rx, moved))]
            m = dim - len(ref.degs)
            recipe.append((slot[ref.gen], [table.degs[m + k][j]
                                           for k, j in enumerate(reversed(ref.degs))]))
        at = dict(zip(keys[n_from], range(len(keys[n_from]))))
        out = []
        for key in keys[n_to]:
            image = []
            for k, steps in recipe:
                q = key[k]
                for step in steps:
                    q = step[q]
                image.append(q)
            out.append(at.get(tuple(image)))
        return out

    faces = [()] + [
        [rows(n - 1, n, tuple(v for v in range(n + 1) if v != i)) for i in range(n + 1)]
        for n in range(1, dim_cap + 1)
    ]
    degs = [
        [rows(n + 1, n, tuple(min(v, i) if v <= i + 1 else v - 1 for v in range(n + 2)))
         for i in range(n + 1)]
        for n in range(dim_cap)
    ]

    def namer(n, f):
        sig = ",".join(
            f"{g}>{f.assignment[g]}" for g in sorted(f.assignment)
        )
        return f"map{n}[{sig}]"

    return LevelModel(dim_cap, levels, faces, degs, namer=namer)
