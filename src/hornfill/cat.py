"""Finite categories, strict finite 2-categories, and their nerves.

Composition is written `compose(g, f)` for "g after f" throughout.  The
nerve takes level n to composable strings (f_1, ..., f_n) read left to
right: d_0 drops the first arrow, d_n the last, inner d_i composes the
two arrows meeting at vertex i, and s_i inserts an identity there.

2-categories are strict: 1-cell composition is associative on the nose
and 2-cells carry vertical and horizontal composition satisfying the
middle-four interchange.  Their nerve remembers composition up to a
chosen 2-cell witness per triangle and is 3-coskeletal from level 4 on.

`FiniteCategory.validate` is the one checker of composition laws:
identities, a table entry for exactly the composable pairs landing on a
morphism with the right endpoints, the unit laws and associativity.
`Finite2Category.validate` runs it on the vertical category (1-cells and
`vcompose`) and the horizontal category (0-cells and `hcompose`), runs
`Functor.validate` on source, target and `two_identity`, and checks
interchange; each failure names its structure.  `FiniteGroup` (in
`groupoid`) checks its table as a one-object category.

The two quotient constructions at the bottom go the other way, from a
simplicial set to a category: the path category modulo triangle
relations (exact, via a finite word universe with a stability
certificate) and the homotopy category of edge classes (requires inner
2-horn fillers; every independence the construction relies on is checked
instance by instance rather than assumed).
"""

import functools
import itertools
from dataclasses import dataclass, field

from .config import DEFAULT_BUDGET, DEFAULT_DIM_CAP, DEFAULT_PATH_BUDGET
from .errors import CapacityError, ConsistencyError, InputError, ValidationError
from .sset import LevelModel, SimplexRef, SimplicialSet


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


class FiniteCategory:
    """Objects, morphisms with endpoints, identities, full composition table."""

    def __init__(self, objects, morphisms, identity, compose, check=True):
        self.objects = tuple(sorted(objects))
        self.mor = {m: (s, t) for m, (s, t) in morphisms.items()}
        self.identity = dict(identity)
        self.compose_table = dict(compose)
        self._hom = {}
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

    def morphism_ids(self):
        return tuple(sorted(self.mor))

    def validate(self):
        if len(set(self.objects)) != len(self.objects):
            raise ValidationError("duplicate object ids")
        for m, (s, t) in self.mor.items():
            if s not in self.objects or t not in self.objects:
                raise ValidationError(f"morphism {m!r} has endpoint outside objects")
        for x in self.objects:
            i = self.identity.get(x)
            if i is None or i not in self.mor or self.mor[i] != (x, x):
                raise ValidationError(f"bad identity at {x!r}")
        mor, table = self.mor, self.compose_table
        mors = sorted(mor)
        # into[x]: the morphisms ending at x, so (g, f) is composable
        # exactly when f is in into[src g]
        into = {x: [] for x in self.objects}
        for m in mors:
            into[mor[m][1]].append(m)
        pairs = 0
        for g in mors:
            for f in into[mor[g][0]]:
                pairs += 1
                if (g, f) not in table:
                    raise ValidationError(
                        f"composition table wrong at ({g!r}, {f!r}): missing entry"
                    )
                gf = table[(g, f)]
                if gf not in mor:
                    raise ValidationError(f"({g!r}, {f!r}) composes to unknown {gf!r}")
                if mor[gf] != (mor[f][0], mor[g][1]):
                    raise ValidationError(f"({g!r}, {f!r}) composes with wrong endpoints")
        if len(table) != pairs:
            g, f = min(
                (g, f) for g, f in table
                if g not in mor or f not in mor or mor[f][1] != mor[g][0]
            )
            raise ValidationError(
                f"composition table wrong at ({g!r}, {f!r}): spurious entry"
            )
        for f in mors:
            s, t = mor[f]
            if table[(f, self.identity[s])] != f:
                raise ValidationError(f"right unit fails at {f!r}")
            if table[(self.identity[t], f)] != f:
                raise ValidationError(f"left unit fails at {f!r}")
        for h in mors:
            for g in into[mor[h][0]]:
                hg = table[(h, g)]
                for f in into[mor[g][0]]:
                    if table[(h, table[(g, f)])] != table[(hg, f)]:
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

    def opposite(self):
        return FiniteCategory(
            self.objects,
            {m: (t, s) for m, (s, t) in self.mor.items()},
            self.identity,
            {(f, g): h for (g, f), h in self.compose_table.items()},
            check=False,
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
    """All functors c -> d, ordered by image tuples; backtracking with
    composition pruning on already-assigned triples.  A CapacityError
    carries the number of functors found as partial."""
    objs = list(c.objects)
    mors = sorted(c.mor)
    results = []
    on_obj = {}
    on_mor = {}
    nodes = 0
    triples = [
        (g, f, gf)
        for (g, f), gf in sorted(c.compose_table.items())
    ]

    def assign_morphisms(i):
        nonlocal nodes
        if i == len(mors):
            results.append((dict(on_obj), dict(on_mor)))
            return
        m = mors[i]
        s, t = c.mor[m]
        if m == c.identity.get(s) and s == t:
            cands = (d.identity[on_obj[s]],)
        else:
            cands = d.hom(on_obj[s], on_obj[t])
        for fm in cands:
            nodes += 1
            if nodes > budget:
                raise CapacityError(f"functor search exceeded budget {budget}",
                                    partial=len(results))
            on_mor[m] = fm
            ok = True
            for (g, f, gf) in triples:
                if g in on_mor and f in on_mor and gf in on_mor:
                    if d.compose_table[(on_mor[g], on_mor[f])] != on_mor[gf]:
                        ok = False
                        break
            if ok:
                assign_morphisms(i + 1)
            del on_mor[m]

    def assign_objects(i):
        if i == len(objs):
            assign_morphisms(0)
            return
        x = objs[i]
        for y in d.objects:
            on_obj[x] = y
            if all(
                not c.hom(a, b) or d.hom(on_obj[a], on_obj[b])
                for a in objs[: i + 1]
                for b in objs[: i + 1]
                if a in on_obj and b in on_obj
            ):
                assign_objects(i + 1)
            del on_obj[x]

    assign_objects(0)
    out = [Functor(c, d, o, m) for o, m in results]
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

    def ref_of_string(self, fs):
        """Normal form of the composable string (f_1, ..., f_n)."""
        return self.model.ref_of[(len(fs), tuple(fs))]


def nerve(c, dim_cap=DEFAULT_DIM_CAP):
    """Nerve of a finite category as a truncated simplicial set."""
    levels = [list(c.objects)]
    for n in range(1, dim_cap + 1):
        prev = levels[-1]
        if n == 1:
            levels.append([(m,) for m in sorted(c.mor)])
            continue
        levels.append(
            [fs + (g,) for fs in prev for g in sorted(c.mor) if c.mor[g][0] == c.mor[fs[-1]][1]]
        )

    def face(n, i, x):
        if n == 1:
            return c.mor[x[0]][1] if i == 0 else c.mor[x[0]][0]
        if i == 0:
            return x[1:]
        if i == n:
            return x[:-1]
        return x[: i - 1] + (c.compose_table[(x[i], x[i - 1])],) + x[i + 1 :]

    def deg(n, i, x):
        if n == 0:
            return (c.identity[x],)
        v = c.mor[x[0]][0] if i == 0 else c.mor[x[i - 1]][1]
        return x[:i] + (c.identity[v],) + x[i:]

    def namer(n, x):
        return str(x) if n == 0 else "|".join(x)

    model = LevelModel(dim_cap, levels, face, deg, namer=namer)
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

    def id2(self, f):
        return self.two_identity[f]

    def vcomp(self, b, a):
        return self.vcompose[(b, a)]

    def hcomp(self, b, a):
        return self.hcompose[(b, a)]

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


def _enumerate_duskin_level(c2, n, budget):
    """All n-simplices (n >= 2): vertex tuples, edge and triangle labelings
    satisfying every tetrahedron condition.  A CapacityError carries the
    number of n-simplices found as partial."""
    order = _cells_in_order(n)
    out = []
    nodes = 0
    verts = {}
    edges = {}
    tris = {}

    def tetra_ready_checks(t):
        # quads whose lexicographically last triangle is t = (j, k, l)
        j, k, l = t
        return [(i, j, k, l) for i in range(j)]

    def spend():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapacityError(f"2-nerve enumeration exceeded budget {budget}", partial=len(out))

    def rec(pos):
        if pos == len(order):
            e = tuple(edges[p] for p in sorted(edges))
            t = tuple(tris[p] for p in sorted(tris))
            out.append((tuple(verts[i] for i in range(n + 1)), e, t))
            return
        cell = order[pos]
        if len(cell) == 2:
            i, j = cell
            cands = c2.cat.hom(verts[i], verts[j])
            for f in cands:
                spend()
                edges[cell] = f
                rec(pos + 1)
                del edges[cell]
        else:
            i, j, k = cell
            composite = c2.cat.compose_table[(edges[(j, k)], edges[(i, j)])]
            for m in c2.two_hom(composite, edges[(i, k)]):
                spend()
                tris[cell] = m
                if all(
                    _tetra_holds(c2, edges, tris, q) for q in tetra_ready_checks(cell)
                ):
                    rec(pos + 1)
                del tris[cell]

    def rec_verts(i):
        if i == n + 1:
            rec(0)
            return
        for x in c2.objects:
            verts[i] = x
            rec_verts(i + 1)
            del verts[i]

    rec_verts(0)
    return out


@functools.cache
def _duskin_recipe(n_from, alpha):
    """Where each edge and triangle of an alpha-relabelled simplex comes from.

    For alpha: [n_to] -> [n_from], edges and triangles in lex order.  An
    edge entry is the position of the source edge (alpha i, alpha j), or ~a
    for the identity 1-cell at source vertex a = alpha i = alpha j.  A
    triangle entry is the position of the source triangle, or ~q for the
    identity 2-cell on the new edge at position q: (j, k) when alpha i =
    alpha j, else (i, j).  Memoised: one entry per monotone map in use.
    """
    epos = {p: q for q, p in enumerate(itertools.combinations(range(n_from + 1), 2))}
    tpos = {p: q for q, p in enumerate(itertools.combinations(range(n_from + 1), 3))}
    new_epos = {p: q for q, p in enumerate(itertools.combinations(range(len(alpha)), 2))}
    edges = tuple(
        ~alpha[i] if alpha[i] == alpha[j] else epos[(alpha[i], alpha[j])]
        for i, j in new_epos
    )
    tris = tuple(
        ~new_epos[(j, k)] if alpha[i] == alpha[j]
        else ~new_epos[(i, j)] if alpha[j] == alpha[k]
        else tpos[(alpha[i], alpha[j], alpha[k])]
        for i, j, k in itertools.combinations(range(len(alpha)), 3)
    )
    return edges, tris


def _duskin_reindex(c2, n_from, elem, alpha):
    """Relabel an n_from-simplex along a monotone alpha: [n_to] -> [n_from].

    Repeated vertices receive identity 1-cells and identity 2-cells; this is
    where strictness of the 2-category is used.
    """
    verts, e, t = elem
    edges, tris = _duskin_recipe(n_from, alpha)
    identity, id2 = c2.cat.identity, c2.two_identity
    new_e = tuple(e[p] if p >= 0 else identity[verts[~p]] for p in edges)
    new_t = tuple(t[p] if p >= 0 else id2[new_e[~p]] for p in tris)
    return tuple(verts[a] for a in alpha), new_e, new_t


def _duskin_pack(n, elem):
    """Down-convert the uniform (verts, edges, tris) shape to the level type."""
    verts, e, t = elem
    if n == 0:
        return verts[0]
    if n == 1:
        return e[0]
    return (e, t)


@functools.cache
def _consecutive_edges(n):
    """Positions of the edges (i, i + 1) of the n-simplex in lex order."""
    epos = {p: q for q, p in enumerate(itertools.combinations(range(n + 1), 2))}
    return tuple(epos[(i, i + 1)] for i in range(n))


def _duskin_unpack(c2, n, x):
    if n == 0:
        return ((x,), (), ())
    if n == 1:
        s, t = c2.one[x]
        return ((s, t), (x,), ())
    e, t = x
    one = c2.one
    verts = (one[e[0]][0],) + tuple(one[e[q]][1] for q in _consecutive_edges(n))
    return (verts, e, t)


def duskin_nerve(c2, dim_cap=DEFAULT_DIM_CAP, budget=DEFAULT_BUDGET):
    """Nerve of a strict 2-category; 3-coskeletal above level 3.

    Level 2 collects one 2-cell witness per triangle of 1-cells; level 3
    keeps those quadruples whose two contraction routes agree; higher
    levels are full edge/triangle labelings with every tetrahedron checked.
    """
    levels = [list(c2.objects), sorted(c2.one)]
    for n in range(2, dim_cap + 1):
        levels.append(
            [_duskin_pack(n, x) for x in _enumerate_duskin_level(c2, n, budget)]
        )

    def face(n, i, x):
        full = _duskin_unpack(c2, n, x)
        alpha = tuple(v for v in range(n + 1) if v != i)
        return _duskin_pack(n - 1, _duskin_reindex(c2, n, full, alpha))

    def deg(n, i, x):
        full = _duskin_unpack(c2, n, x)
        alpha = tuple(range(i + 1)) + tuple(range(i, n + 1))
        return _duskin_pack(n + 1, _duskin_reindex(c2, n, full, alpha))

    def namer(n, x):
        if n == 0:
            return str(x)
        if n == 1:
            return str(x)
        e, t = x
        return "{" + ",".join(e) + "|" + ",".join(t) + "}"

    model = LevelModel(dim_cap, levels, face, deg, namer=namer)
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
    edges = list(x.simplices(1))
    tri = set()
    for s in x.simplices(2):
        tri.add((x._face(s, 0), x._face(s, 1), x._face(s, 2)))

    def endpoints(f):
        return (x._face(f, 1).gen, x._face(f, 0).gen)

    def homotopic(f, g):
        if endpoints(f) != endpoints(g):
            return False
        y = endpoints(f)[1]
        return (SimplexRef(y, (0,)), g, f) in tri

    # the relation must already be an equivalence relation on each hom-set
    pairs = 0
    idx = {f: i for i, f in enumerate(edges)}
    linked = UnionFind(range(len(edges)))
    find = linked.find
    for f in edges:
        if not homotopic(f, f):
            raise InputError(f"homotopy relation not reflexive at {f}; missing s1-degeneracies")
    for f in edges:
        for g in edges:
            if endpoints(f) != endpoints(g):
                continue
            fg, gf = homotopic(f, g), homotopic(g, f)
            if fg != gf:
                raise ConsistencyError(f"homotopy relation not symmetric at ({f}, {g})")
            if fg:
                pairs += 1
                linked.union(idx[f], idx[g])
    # transitivity: union-find closure must not outrun the raw relation
    for f in edges:
        for g in edges:
            if endpoints(f) == endpoints(g) and find(idx[f]) == find(idx[g]):
                if not homotopic(f, g):
                    raise ConsistencyError(
                        f"homotopy relation not transitive: ({f}, {g}) linked but unrelated"
                    )

    classes = {}
    for f in edges:
        classes.setdefault(find(idx[f]), []).append(f)
    rep = {r: min(fs) for r, fs in classes.items()}
    name = {r: str(rep[r]) for r in classes}

    composite_index = {}
    for (d0, d1, d2) in tri:
        composite_index.setdefault((d2, d0), set()).add(d1)

    table = {}
    for r2, gs in classes.items():
        for r1, fs in classes.items():
            if endpoints(rep[r1])[1] != endpoints(rep[r2])[0]:
                continue
            found = set()
            for f in fs:
                for g in gs:
                    outs = composite_index.get((f, g))
                    if not outs:
                        raise InputError(
                            f"no inner 2-horn filler for ({f}, {g}); not a weak Kan complex"
                        )
                    found.update(find(idx[h]) for h in outs)
            if len(found) > 1:
                raise ConsistencyError(
                    f"composite of ({rep[r1]}, {rep[r2]}) depends on the filler chosen"
                )
            table[(name[r2], name[r1])] = name[next(iter(found))]

    objects = list(x.generators(0))
    mor = {name[r]: endpoints(rep[r]) for r in classes}
    identity = {}
    for v in objects:
        f = SimplexRef(v, (0,))
        identity[v] = name[find(idx[f])]
    cat = FiniteCategory(objects, mor, identity, table)
    return HomotopyCategoryResult(cat, {f: name[find(idx[f])] for f in edges}, pairs)


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
    from .sset import (
        SimplicialMap,
        enumerate_maps,
        product_structure,
        standard_ref_of_vertices,
        standard_simplex,
        vertices_of_standard_ref,
    )

    prods = [
        product_structure(x, standard_simplex(n, dim_cap=max(x.dim_cap, n)))
        for n in range(dim_cap + 1)
    ]

    def induced(n_from, n_to, alpha, f):
        """Precompose f: x * D^{n_to} -> y with id * alpha."""
        p_from, p_to = prods[n_from], prods[n_to]
        assignment = {}
        for g in p_from.sset.all_generators():
            rx, ra = p_from.pair_of_gen(g)
            verts = vertices_of_standard_ref(p_from.right, ra)
            moved = standard_ref_of_vertices(tuple(alpha[v] for v in verts))
            dim = p_from.sset.gen_dim[g]
            ref = p_to.model.ref_of[(dim, (rx, moved))]
            assignment[g] = f.apply(ref)
        return SimplicialMap(p_from.sset, y, assignment, check=False)

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

    def face(n, i, f):
        alpha = tuple(v for v in range(n + 1) if v != i)
        return induced(n - 1, n, alpha, f)

    def deg(n, i, f):
        alpha = tuple(min(v, i) if v <= i + 1 else v - 1 for v in range(n + 2))
        return induced(n + 1, n, alpha, f)

    def namer(n, f):
        sig = ",".join(
            f"{g}>{f.assignment[g]}" for g in sorted(f.assignment)
        )
        return f"map{n}[{sig}]"

    return LevelModel(dim_cap, levels, face, deg, namer=namer)
