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
also runs (`SimplicialObject.join`), over the table of the set built one
level below; the tuples that are not s_j of an entry are the generators.

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
composable pair (h, g) run, to name the first failing triple.  Every
category, 2-category, group and groupoid is checked when it is built,
as [X/R] is a groupoid because R is an equivalence relation.  A
`Finite2Category` builds the category of 0- and 1-cells, the vertical
category (1-cells and `vcompose`) and the horizontal category (0-cells
and `hcompose`), runs `Functor.validate` on source, target and
`two_identity`, and checks interchange; each failure after the first
category's names its structure.  `FiniteGroup` (in `groupoid`) builds
its table as a one-object category.

Functors c -> d are the simplicial maps of the 2-truncated nerves
N(c) -> N(d), since the nerve is fully faithful and 2-coskeletal, so
`enumerate_functors` runs the one map search of `sset` on the nerves
each category keeps, and `categories_isomorphic` runs its bijective
case, `is_isomorphic`.

The two quotient constructions at the bottom go the other way, from a
simplicial set to a category: the path category modulo triangle
relations (exact, via a finite word universe with a stability
certificate) and the homotopy category of edge classes (requires inner
2-horn fillers; every independence the construction relies on is checked
instance by instance rather than assumed).
"""

import functools
import itertools
import math
from dataclasses import dataclass

from .config import DEFAULT_BUDGET, DEFAULT_DIM_CAP, DEFAULT_PATH_BUDGET
from .errors import CapacityError, ConsistencyError, InputError, ValidationError
from .sset import (
    LevelModel,
    SimplexRef,
    SimplicialSet,
    check_level_cap,
    enumerate_maps,
    is_isomorphic,
    product_structure,
    standard_ref_of_vertices,
    standard_simplex,
    vertices_of_standard_ref,
)


# `FiniteCategory.validate` runs the row scan alone up to this many
# composable triples per morphism
SCAN_TRIPLES = 16


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

    def classes(self):
        """{root: [members]}, keys and members in the order of the items."""
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def _within(structure, build):
    """Return `build()`, naming `structure` in any ValidationError it raises."""
    try:
        return build()
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

    def __init__(self, objects, morphisms, identity, compose):
        self.objects = tuple(sorted(objects))
        self.mor = {m: (s, t) for m, (s, t) in morphisms.items()}
        self.identity = dict(identity)
        self.compose_table = dict(compose)
        self._hom = {}
        self._nerve2 = None  # the 2-truncated nerve, built by _nerve2
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
        then associativity by Light's test (see the module docstring), or
        on a table of at most SCAN_TRIPLES composable triples per morphism
        by the row scan alone, which costs less there than choosing the
        generators.  The constructor runs it, so every category in hand
        has passed it."""
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
        triples = sum(len(rows.into[s]) * len(rows.out[t]) for s, t in self.mor.values())
        if (triples <= SCAN_TRIPLES * len(rows.mors)
                or not all(map(rows.good, rows.generators(self.identity)))):
            failure = rows.first_failure()
            if failure is not None:
                raise ValidationError("associativity fails at (%r,%r,%r)" % failure)

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
        """Images in tgt with the right endpoints, identities to identities
        and composites to composites.  Both categories were checked when
        built, so once the endpoints are right no lookup below can miss."""
        src, tgt, obj, mor = self.src, self.tgt, self.on_objects, self.on_morphisms
        for x in src.objects:
            if obj.get(x) not in tgt.objects:
                raise ValidationError(f"object {x!r} has no valid image")
        for m, (s, t) in src.mor.items():
            fm = mor.get(m)
            if fm not in tgt.mor:
                raise ValidationError(f"morphism {m!r} has no valid image")
            if tgt.mor[fm] != (obj[s], obj[t]):
                raise ValidationError(f"image of {m!r} has wrong endpoints")
        for x in src.objects:
            if mor[src.identity[x]] != tgt.identity[obj[x]]:
                raise ValidationError(f"identity at {x!r} not preserved")
        for (g, f), gf in src.compose_table.items():
            if tgt.compose_table[(mor[g], mor[f])] != mor[gf]:
                raise ValidationError(f"composition ({g!r},{f!r}) not preserved")


def _nerve2(c):
    """The 2-truncated nerve of c, built once and kept on c."""
    if c._nerve2 is None:
        c._nerve2 = nerve(c, dim_cap=2)
    return c._nerve2


def _functor_of(c, d):
    """The function taking a map N(c) -> N(d) of 2-truncated nerves, as its
    assignment, to its Functor c -> d.  A nerve names the vertex of an
    object x `str(x)` and the edge of a non-identity morphism m `m`
    (`nerve`); m goes to the identity at the image of its source when it
    is an identity or its edge goes to a degenerate edge."""
    vertex = {str(y): y for y in d.objects}
    units = set(c.identity.values())

    def functor(assignment):
        obj = {x: vertex[assignment[str(x)].gen] for x in c.objects}
        mor = {}
        for m, (s, _) in c.mor.items():
            ref = None if m in units else assignment[m]
            mor[m] = d.identity[obj[s]] if ref is None or ref.degs else ref.gen
        return Functor(c, d, obj, mor)

    return functor


def enumerate_functors(c, d, budget=DEFAULT_BUDGET):
    """All functors c -> d, ordered by image tuples.

    The nerve is fully faithful and 2-coskeletal, so these are the
    simplicial maps N(c) -> N(d) of the 2-truncated nerves, found by
    `enumerate_maps`: the budget counts its trials, and a CapacityError
    carries the number of functors found as partial.
    """
    functor = _functor_of(c, d)
    out = [functor(f.assignment)
           for f in enumerate_maps(_nerve2(c).sset, _nerve2(d).sset, budget=budget)]
    objs, mors = list(c.objects), sorted(c.mor)
    out.sort(key=lambda F: (tuple(F.on_objects[x] for x in objs), tuple(F.on_morphisms[m] for m in mors)))
    return out


def categories_isomorphic(c, d, budget=DEFAULT_BUDGET):
    """An isomorphism c -> d as a Functor, or None (exhaustive).

    The nerve is fully faithful, so these are the isomorphisms of the
    2-truncated nerves, found by the bijective case of the one map search
    (`is_isomorphic`): the budget counts its trials, and a CapacityError
    carries the number of nerve generators matched as partial.
    """
    if len(c.objects) != len(d.objects) or len(c.mor) != len(d.mor):
        return None
    f = is_isomorphic(_nerve2(c).sset, _nerve2(d).sset, budget=budget)
    return None if f is None else _functor_of(c, d)(f.assignment)


# -- the nerve ----------------------------------------------------------------


@dataclass
class NerveResult:
    """The nerve of `category`, `sset` as `nerve` presents it.

    `model` is the route that presentation replaced, kept as its oracle:
    every composable string through the cap, in the order of
    `_nerve_rows`, handed to a LevelModel that strips the degenerate ones
    and keeps that order; `model.ref_of` reads each string's normal form.
    It is built on first read; on a category the rows are in range and
    satisfy the simplicial identities (see `_nerve_rows`), so the model
    skips their check."""

    sset: SimplicialSet
    category: FiniteCategory

    @functools.cached_property
    def model(self):
        c, cap = self.category, self.sset.dim_cap
        objects, mors = list(c.objects), sorted(c.mor)
        at_obj = {x: v for v, x in enumerate(objects)}
        at_mor = {m: k for k, m in enumerate(mors)}
        src = [at_obj[c.mor[m][0]] for m in mors]
        tgt = [at_obj[c.mor[m][1]] for m in mors]
        ident = [at_mor[c.identity[x]] for x in objects]
        comp = {(at_mor[g], at_mor[f]): at_mor[h] for (g, f), h in c.compose_table.items()}
        faces, degs, parent, last = _nerve_rows(src, tgt, ident, lambda g, f: comp[g, f], cap)
        strings = [[()] * len(objects)]
        for n in range(1, cap + 1):
            strings.append([strings[n - 1][q] + (mors[g],) for q, g in zip(parent[n], last[n])])
        return LevelModel(cap, [objects] + strings[1:], faces, degs,
                          namer=lambda n, x: str(x) if n == 0 else "|".join(x), check=False)


def _composable_strings(src, tgt, objects, cap):
    """The composable strings of arrows 0 .. len(src) - 1 between objects
    0 .. objects - 1, of lengths 1 through cap, numbered level by level:
    level 1 lists the arrows and level n >= 2 each string of level n - 1
    followed by each arrow out of its target, in the order of src.
    Returns (parent, last, first, ranks), indexed by level n >= 1: string
    p of level n is string parent[n][p] of level n - 1 (at level 1, its
    source object) followed by arrow last[n][p], and the string q
    followed by arrow g sits at first[n][q] + ranks[n][g]; ranks[n][g] is
    the place of g among the arrows out of its source (at level 1, g)."""
    out, rank = [[] for _ in range(objects)], []
    for g, x in enumerate(src):
        rank.append(len(out[x]))
        out[x].append(g)
    arrows = list(range(len(src)))
    parent, last, first, ranks = [None, src], [None, arrows], [None, [0] * objects], [None, arrows]
    for n in range(2, cap + 1):
        ends = [out[tgt[g]] for g in last[n - 1]]
        first.append(list(itertools.accumulate(map(len, ends), initial=0)))
        ranks.append(rank)
        parent.append([q for q, gs in enumerate(ends) for _ in gs])
        last.append([g for gs in ends for g in gs])
    return parent, last, first, ranks


def _nerve_rows(src, tgt, ident, compose, cap):
    """The rows of the nerve of a category on positions, through level cap.

    Arrows are 0 .. len(src) - 1 and objects 0 .. len(ident) - 1; src, tgt
    and ident hold positions and compose(g, f) is g o f.  Level 0 lists the
    objects and level n >= 1 the strings of `_composable_strings`, so a
    string is its parent (d_n) and its last arrow.
    d_i, i < n - 1, is the child of d_i of the parent; d_{n-1} composes the
    last two arrows; s_i inserts an identity.  Returns (faces, degs, parent,
    last), parent[n] and last[n] giving each element of level n >= 1 as its
    parent (at level 1, its source) and last arrow, for the caller to label.
    Whenever the data form a category the rows are in range and satisfy
    the simplicial identities: a face of a composable string drops an end
    arrow or composes two arrows meeting at a vertex, so it is a composable
    string, listed one level down, and inserting an identity gives one
    listed one level up; on strings, the face identities hold by
    associativity where two composites meet and the others by the unit
    laws (d_j s_j = d_{j+1} s_j = id).
    """
    parent, last, first, ranks = _composable_strings(src, tgt, len(ident), cap)

    def child(n, qs, gs):
        """Positions in level n of the strings with parents qs and last arrows gs."""
        if n == 1:
            return list(gs)
        f, r = first[n], ranks[n]
        return [f[q] + r[g] for q, g in zip(qs, gs)]

    faces, degs = [(), [tgt, src]], [[ident]]
    for n in range(2, cap + 1):
        par, arrows, below = parent[n], last[n], faces[n - 1]
        composites = [compose(g, last[n - 1][q]) for q, g in zip(par, arrows)]
        faces.append([child(n - 1, [below[i][q] for q in par], arrows) for i in range(n - 1)]
                     + [child(n - 1, [below[n - 1][q] for q in par], composites), par])
        ids = [ident[tgt[g]] for g in last[n - 1]]
        degs.append([child(n, [degs[n - 2][i][q] for q in parent[n - 1]], last[n - 1])
                     for i in range(n - 1)] + [child(n, range(len(ids)), ids)])
    return faces[:cap + 1], degs[:cap], parent[:cap + 1], last[:cap + 1]


def nerve(c, dim_cap=DEFAULT_DIM_CAP):
    """Nerve of a finite category as a truncated simplicial set, presented
    by its non-degenerate simplices (Eilenberg-Zilber; Goerss and Jardine,
    Simplicial Homotopy Theory, I.1; May, Simplicial Objects in Algebraic
    Topology, Def. 1.3).

    Level 0 is the objects, named str(x); level n is the strings (f_1,
    ..., f_n) of composable non-identity morphisms, named "|".join, in the
    order of `_nerve_rows`.  d_0 drops f_1 and d_n drops f_n; for 0 < i <
    n, d_i puts f_{i+1} o f_i in their place, and where that composite is
    the identity of x the face is s_{i-1} of the string without both
    arrows, or s_0 x when none is left.  Two simplices with one name are
    an InputError.

    The category was checked when built, and the set is built unchecked,
    on this proof.  With the maps of
    `_nerve_rows` the composable strings form the nerve, and s_i inserts
    an identity as f_{i+1}, so the strings with no identity are its
    non-degenerate simplices and present it.  Each face above is the
    nerve's in normal form: a string of non-identity arrows one level
    down, or, where a composite in place i is the identity of x, s_{i-1}
    of such a string two levels down, or s_0 x.  `NerveResult.model` is
    the oracle.
    """
    check_level_cap(dim_cap)
    objects, units = c.objects, set(c.identity.values())
    arrows = [m for m in sorted(c.mor) if m not in units]
    at_obj = {x: v for v, x in enumerate(objects)}
    at = {m: k for k, m in enumerate(arrows)}
    src = [at_obj[c.mor[m][0]] for m in arrows]
    tgt = [at_obj[c.mor[m][1]] for m in arrows]
    # g o f on arrow positions, None where it is an identity
    comp = {(at[g], at[f]): at.get(h) for (g, f), h in c.compose_table.items()
            if g in at and f in at}
    parent, last, first, ranks = _composable_strings(src, tgt, len(objects), dim_cap)

    def extend(m, codes, gs):
        """The face codes of the strings whose parents have the face codes
        `codes`, at level m, and whose last arrows are gs.  Code p >= 0 is
        string p of level m, and -1 - z is the degeneracy the face names
        of string z of level m - 1 (never at m = 0); the arrow extends
        either."""
        f, r, f1, r1 = first[m + 1], ranks[m + 1], first[m], ranks[m]
        return [f[z] + r[g] if z >= 0 else -1 - f1[-1 - z] - r1[g] for z, g in zip(codes, gs)]

    names = [[str(x) for x in objects]]
    refs, rows, gen_faces = list(map(SimplexRef, names[0])), [tgt, src], {}
    for n in range(1, dim_cap + 1):
        if n == 1:
            names.append(arrows)
        else:
            par = parent[n]
            grand = [parent[n - 1][q] for q in par]
            composites = [comp[g, last[n - 1][q]] for q, g in zip(par, last[n])]
            rows = [extend(n - 2, [row[q] for q in par], last[n]) for row in rows[:n - 1]]
            f, r = first[n - 1], ranks[n - 1]
            rows.append([-1 - z if h is None else f[z] + r[h] for z, h in zip(grand, composites)])
            rows.append(par)
            names.append([names[n - 1][q] + "|" + arrows[g] for q, g in zip(par, last[n])])
        columns = []
        for i, row in enumerate(rows):
            lookup = refs
            # code -1 - z reads s_{i-1} of string z of level n - 2 from the end
            if min(row, default=0) < 0:
                lookup = refs + [SimplexRef(z, (i - 1,)) for z in reversed(names[n - 2])]
            columns.append(map(lookup.__getitem__, row))
        gen_faces.update(zip(names[n], zip(*columns)))
        refs = list(map(SimplexRef, names[n]))

    def string(n, p):
        if n == 0:
            return objects[p]
        return (string(n - 1, parent[n][p]) if n > 1 else ()) + (arrows[last[n][p]],)

    _refuse_collision(names, string)
    generators = dict(enumerate(names))
    return NerveResult(SimplicialSet(dim_cap, generators, gen_faces, check=False), c)


def _refuse_collision(names, element):
    """Raise for the first name of a simplex, in level order, that an
    earlier one has, if any, naming both simplices as the LevelModel did:
    element(n, p) is the simplex named names[n][p]."""
    if len(set(itertools.chain.from_iterable(names))) == sum(map(len, names)):
        return
    seen = {}
    for n, level in enumerate(names):
        for p, name in enumerate(level):
            if name in seen:
                m, q = seen[name]
                raise InputError(f"level namer collision at {name!r}: {element(m, q)!r}"
                                 f" at level {m} and {element(n, p)!r} at level {n}")
            seen[name] = n, p


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
                 two_identity, vcompose, hcompose):
        self.cat = FiniteCategory(objects, one_cells, identity, compose)
        self.objects = self.cat.objects
        self.one = self.cat.mor
        self.two = dict(two_cells)
        self.two_identity = dict(two_identity)
        self.vcompose = dict(vcompose)
        self.hcompose = dict(hcompose)
        self._two_hom = {}
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
        """The vertical and horizontal categories, three functors and
        interchange (see the module docstring), each failure naming its
        structure; the category of 0- and 1-cells was checked when built."""
        one, two, v, h = self.one, self.two, self.vcompose, self.hcompose
        _within("vertical", lambda: FiniteCategory(one, two, self.two_identity, v))
        horizontal = _within("horizontal", lambda: FiniteCategory(
            self.objects, {a: one[f] for a, (f, g) in two.items()},
            {x: self.two_identity[i] for x, i in self.cat.identity.items()}, h))
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
    """The Duskin nerve of `two_category`, `sset` as `duskin_nerve` presents it.

    `model`, built on first read, is a LevelModel over the set's own table
    whose elements are their cells (`_table_cells`); the table satisfies
    the simplicial identities, so the model skips their check."""

    sset: SimplicialSet
    two_category: Finite2Category

    @functools.cached_property
    def model(self):
        table = self.sset.table()
        return LevelModel(self.sset.dim_cap, _table_cells(self.two_category, table), table.faces,
                          table.degs, namer=_duskin_name, check=False)


def _duskin_name(n, x):
    """The name of the Duskin n-simplex with cells x."""
    if n < 2:
        return str(x)
    e, t = x
    return "{" + ",".join(e) + "|" + ",".join(t) + "}"


def _triangles(c2):
    """Every triangle ((f, e, g), (t,)) of 1-cells with a 2-cell t: g o f => e."""
    one, hom, compose = c2.one, c2.cat.hom, c2.cat.compose_table
    return [((f, e, g), (t,)) for f in sorted(one) for c in c2.objects
            for g in hom(one[f][1], c) for e in hom(one[f][0], c)
            for t in c2.two_hom(compose[(g, f)], e)]


def _table_cells(c2, table):
    """The cells of each element of `table`, a Duskin nerve's, level by
    level: an object, a 1-cell, or (edges, 2-cells) in lex order.  The edge
    s_0 x is the identity of x, the triangle s_j y carries the identity
    2-cell of y = d_1, and a higher simplex has its faces' cells."""
    ident, id2 = c2.cat.identity, c2.two_identity
    named = {str(v): v for v in itertools.chain(c2.objects, c2.one)}
    named.update((_duskin_name(2, x), x[1][0]) for x in _triangles(c2))
    cells = []
    for n, level in enumerate(table.levels):
        if n < 2:
            cells.append([ident[named[r.gen]] if r.degs else named[r.gen] for r in level])
        elif n == 2:
            one = cells[1]
            two = [id2[one[q]] if r.degs else named[r.gen]
                   for r, q in zip(level, table.faces[2][1])]
            cells.append([((one[f], one[e], one[g]), (t,))
                          for g, e, f, t in zip(*table.faces[2], two)])
        else:
            cells.append(_simplex_cells(table, n, list(zip(*table.faces[n])), one, two))
    return cells


def _simplex_cells(table, n, tuples, one, two):
    """The cells of the n-simplices (n >= 3) with the face tuples `tuples`
    over level n - 1 of `table`: the 1-cell of each edge and the 2-cell of
    each triangle of [n] in lex order, read off the first face holding it
    and `one` and `two`, the cells of the edges and triangles of `table`."""
    columns = []
    for k, cells in ((2, one), (3, two)):
        for face in itertools.combinations(range(n + 1), k):
            m = next(v for v in range(n + 1) if v not in face)
            row = table.restriction_table(n - 1, [v - (v > m) for v in face])
            columns.append([cells[row[t[m]]] for t in tuples])
    edges = math.comb(n + 1, 2)
    return list(zip(zip(*columns[:edges]), zip(*columns[edges:])))


def duskin_nerve(c2, dim_cap=DEFAULT_DIM_CAP, budget=DEFAULT_BUDGET):
    """Nerve of a strict 2-category, 3-coskeletal (Duskin, TAC 2002),
    presented by its non-degenerate simplices.

    Level 0 is the objects; level 1 the 1-cells but identities, with faces
    target and source; level 2 the triangles (f, e, g; t), t: g o f => e,
    but (id, f, f; id2 f) and (f, f, id; id2 f), with faces g, e, f.  Each
    level n >= 3 is the boundary join over level n - 1 of the set built
    through n - 1 (at n = 3 kept by `tetrahedron`), less each tuple that
    is the face tuple of s_j of its j-th entry; its faces are its entries.
    A simplex is named by its cells (`_duskin_name`); two simplices with
    one name are an InputError.  The budget counts the candidate triangles
    and the join trials of the whole build; a CapacityError carries the
    budget when the triangles run out, else the partial of the join that
    ran out (`SimplicialObject.join`): the tuples it kept among those the
    budget reaches in its last slot, or 0 in an earlier one.

    The 2-category was checked when built, and the set is built unchecked,
    on this proof.  Levels 0-2 are the
    nerve's non-degenerate simplices: by the unit laws the two triangles
    left out are s_0 f and s_1 f, and no other is s_j of an edge.  By
    induction the set through n - 1 is the nerve through n - 1; as the
    nerve is 3-coskeletal and a 3-simplex is its four triangles if they
    meet the tetrahedron condition, an n-simplex (n >= 3) is its face
    tuple, and the join lists each once.  It is degenerate exactly when it
    is s_j d_j of itself for some j (Eilenberg-Zilber; Goerss and Jardine,
    Simplicial Homotopy Theory, I.1), that is when its tuple is that of s_j
    of its j-th entry, read off the rows by d_i s_j = s_{j-1} d_i, id,
    s_j d_{i-1}.  So the tuples kept are the generators, with faces in
    normal form.
    """
    check_level_cap(dim_cap)
    one, id2 = c2.one, c2.two_identity
    message = f"Duskin nerve exceeded budget {budget}"
    triangles = _triangles(c2) if dim_cap >= 2 else []
    trials = len(triangles)  # one per candidate triangle
    if trials > budget:
        raise CapacityError(message, partial=budget)
    unit = {f: x for x, f in c2.cat.identity.items()}
    edge = lambda f: SimplexRef(str(unit[f]), (0,)) if f in unit else SimplexRef(str(f))
    arrows = [f for f in sorted(one) if f not in unit]
    triangles = [((f, e, g), (t,)) for (f, e, g), (t,) in triangles
                 if not (t == id2[e] and (f in unit and g == e or g in unit and f == e))]
    levels = [(c2.objects, ()),
              (arrows, [(SimplexRef(str(one[f][1])), SimplexRef(str(one[f][0]))) for f in arrows]),
              (triangles, [tuple(map(edge, x[0][::-1])) for x in triangles])][:dim_cap + 1]
    names, gen_faces = [], {}
    for n in range(dim_cap + 1):
        if n >= 3:
            table = SimplicialSet(n - 1, dict(enumerate(names)), gen_faces, check=False).table()
            if n == 3:
                cells = _table_cells(c2, table)
                two = [t for _, (t,) in cells[2]]

                def tetrahedron(ys):
                    """The two 2-cells 23 o 12 o 01 => 03 the faces compose agree."""
                    (e0, (t0,)), (_, (t1,)), (_, (t2,)), (e3, (t3,)) = (cells[2][y] for y in ys)
                    v, h = c2.vcompose, c2.hcompose
                    return v[(t1, h[(id2[e0[2]], t3)])] == v[(t2, h[(t0, id2[e3[0]])])]

            try:
                tuples, trials = table.join(n, range(n + 1), budget, trials,
                                            tetrahedron if n == 3 else None)
            except CapacityError as exc:
                raise CapacityError(message, partial=exc.partial) from None
            # the face tuple of s_j y for each y of level n - 1
            fs, ss, below = table.faces[n - 1], table.degs[n - 2], range(len(table.levels[n - 1]))
            degenerate = [list(zip(*(
                [ss[j - 1][q] for q in fs[i]] if i < j
                else below if i <= j + 1 else [ss[j][q] for q in fs[i - 1]]
                for i in range(n + 1)
            ))) for j in range(n)]
            kept = [t for t in tuples if all(t != d[t[j]] for j, d in enumerate(degenerate))]
            refs = table.levels[n - 1]
            levels.append((_simplex_cells(table, n, kept, cells[1], two),
                           [tuple(map(refs.__getitem__, t)) for t in kept]))
        names.append([_duskin_name(n, x) for x in levels[n][0]])
        _refuse_collision(names, lambda m, p: levels[m][0][p])
        gen_faces.update(zip(names[n], levels[n][1]))
    return DuskinResult(SimplicialSet(dim_cap, dict(enumerate(names)), gen_faces, check=False), c2)


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

    The classes are pi_0 of the quotient groupoid of the universe by the
    congruence, which is symmetric, so each generating pair is listed
    once: each rule is indexed from a non-empty side to its other side,
    and a word is rewritten by looking up each of its slices of a side's
    length.  A pair whose one side is empty is found from the word holding
    the other side, and only composable words are in the universe, so no
    vertex check is needed.  The other side has at most one edge, so a
    rewritten word is never longer and stays in the universe.  The universe grows one length at a time: the
    words of each length are built once, and the probe at L + 1, with its
    classes, becomes the next universe.  The classes do not depend on the
    order of the unions, as each root is its class's least member.  The
    table is built through level 2 first, so that a bad face list of a set
    built unchecked is refused as `SimplicialSet.table` refuses it.
    """
    x.table(min(x.dim_cap, 2))
    verts = list(x.generators(0))
    edges = list(x.generators(1))
    esrc = {e: x.gen_faces[e][1].gen for e in edges}
    etgt = {e: x.gen_faces[e][0].gen for e in edges}
    rewrites = {}
    for g in x.generators(2):
        f0, f1, f2 = (x.gen_faces[g][i] for i in range(3))
        lhs = _edge_word(f2) + _edge_word(f0)
        rhs = _edge_word(f1)
        if lhs != rhs:
            a, b = (lhs, rhs) if lhs else (rhs, lhs)
            rewrites.setdefault(a, []).append(b)
    side_lengths = sorted({len(a) for a in rewrites})

    def word_tgt(w):
        v, es = w
        return v if not es else etgt[es[-1]]

    # words in order of length, each length in order of growth; sizes[k]
    # counts the words of length at most k
    words = [(v, ()) for v in verts]
    index = {w: i for i, w in enumerate(words)}
    sizes = [len(words)]

    def grow():
        k = len(sizes)
        last = words[sizes[-2] if k > 1 else 0 :]
        nxt = [(w[0], w[1] + (e,)) for w in last for e in edges if esrc[e] == word_tgt(w)]
        if len(words) + len(nxt) > path_budget:
            raise CapacityError(
                f"path universe exceeded budget {path_budget};"
                " the quotient category may be infinite",
                partial=k - 1,
            )
        for w in nxt:
            index[w] = len(words)
            words.append(w)
        sizes.append(len(words))

    def congruence(n):
        classes = UnionFind(range(n))
        for i in range(n):
            v0, es = words[i]
            for la in side_lengths:
                for p in range(len(es) - la + 1):
                    for b in rewrites.get(es[p : p + la], ()):
                        j = index.get((v0, es[:p] + b + es[p + la :]))
                        if j is not None:
                            classes.union(i, j)
        return classes

    def composites_of(classes, find, n):
        """{(r1, r2): class of the gluings} over composable class pairs, or
        None when a pair has no in-universe gluing, or one that depends on
        the representatives: that just needs a longer bound."""
        composites = {}
        for r1, ws1 in classes.items():
            for r2, ws2 in classes.items():
                if word_tgt(min(ws1)) != min(ws2)[0]:
                    continue
                glued = (index.get((w1[0], w1[1] + w2[1]), n)
                         for w1 in ws1 for w2 in ws2 if word_tgt(w1) == w2[0])
                found = {find(j) for j in glued if j < n}
                if len(found) != 1:
                    return None
                composites[(r1, r2)] = found.pop()
        return composites

    length, probe = 2, None
    while True:
        if length > max_length:
            raise CapacityError(
                f"path quotient not stable within length bound {max_length};"
                " the quotient category may be infinite",
                partial=length,
            )
        while len(sizes) < length + 2:
            grow()
        n = sizes[length]
        universe = congruence(n) if probe is None else probe
        probe = congruence(sizes[length + 1])
        find, pfind = universe.find, probe.find
        # stable: no probe class joins two universe classes, and each word
        # of length + 1 is in a probe class that meets the universe
        seen = {}
        if all(seen.setdefault(pfind(i), find(i)) == find(i) for i in range(n)) and all(
            pfind(i) in seen for i in range(n, sizes[length + 1])
        ):
            classes = {r: [words[i] for i in ws] for r, ws in universe.classes().items()}
            composites = composites_of(classes, find, n)
            if composites is not None:
                break
        length += 1

    # the loop leaves only through a stable universe, with its classes
    reps = {r: min(ws, key=lambda w: (len(w[1]), w[1], w[0])) for r, ws in classes.items()}

    def name(r):
        v, es = reps[r]
        return f"id_{v}" if not es else "[" + ".".join(es) + "]"

    names = {r: name(r) for r in classes}
    if len(set(names.values())) != len(names):
        raise ConsistencyError("path class naming collided")
    mor = {names[r]: (reps[r][0], word_tgt(reps[r])) for r in classes}
    identity = {v: names[find(index[(v, ())])] for v in verts}
    table = {(names[r2], names[r1]): names[r] for (r1, r2), r in composites.items()}
    cat = FiniteCategory(verts, mor, identity, table)
    mor_of_edge = {e: names[find(index[(esrc[e], (e,))])] for e in edges}
    return PathCategoryResult(cat, {v: v for v in verts}, mor_of_edge, length)


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

    classes = linked.classes()
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

    `pin` fixes the images of chosen vertices v of x, so of the vertices <v|j>
    of every cylinder, e.g. to carve out path components of the space of
    maps.  Faces and degeneracies precompose with the evident cylinder
    inclusions and collapses.  Returns a LevelModel whose level n holds the
    maps, as SimplicialMap values, in the order `enumerate_maps` finds them.
    The target's dim_cap must be at least the source's: maps are enumerated
    only up to y.dim_cap, so no face of a cylinder map could be found otherwise.

    The LevelModel skips the row checks.  Each row sends f to f o (id * alpha)
    for a coface or codegeneracy alpha, which is a map of the cylinder of
    the level below or above, and level n holds every map of its cylinder:
    the pins hold too, as id * alpha sends a pinned vertex (v, j) to the
    pinned vertex (v, alpha(j)).  So every entry is in range.  Precomposition
    is functorial, f o (id * alpha) o (id * beta) = f o (id * alpha beta), so
    the cosimplicial identities of the alphas give those of the rows.
    """
    if y.dim_cap < x.dim_cap:
        raise InputError(f"mapping_space needs the target's dim_cap {y.dim_cap} to be at"
                         f" least the source's dim_cap {x.dim_cap}")
    check_level_cap(dim_cap, "dim_cap")
    for xv in pin or ():
        if x.gen_dim.get(xv) != 0:
            raise InputError(f"pin {xv!r} is not a vertex of the source")
    prods = [product_structure(x, standard_simplex(n, dim_cap=max(x.dim_cap, n)))
             for n in range(dim_cap + 1)]
    levels = [enumerate_maps(prods[n].sset, y, budget=budget, fixed=pin and {
        f"<{xv}|{j}>": img for xv, img in pin.items() for j in range(n + 1)})
        for n in range(dim_cap + 1)]
    # each map as the positions in y's table of the images of its generators
    table = y.table(x.dim_cap)
    gens = [list(p.sset.all_generators()) for p in prods]
    keys = [[tuple(table.position[p.sset.gen_dim[g]][f.assignment[g]] for g in gs) for f in level]
            for p, gs, level in zip(prods, gens, levels)]

    def rows(n_from, n_to, alpha):
        """The position in level n_from of f o (id * alpha), for each f of
        level n_to: a generator of the n_from cylinder goes to one of the n_to
        cylinder under a word, read off f's key and y's degeneracy rows."""
        p_from, p_to = prods[n_from], prods[n_to]
        slot = {g: k for k, g in enumerate(gens[n_to])}
        recipe = []
        for g in gens[n_from]:
            rx, ra = p_from.pair_of_gen(g)
            verts = vertices_of_standard_ref(p_from.right, ra)
            ref = p_to.ref_of(rx, standard_ref_of_vertices(tuple(alpha[v] for v in verts)))
            m = p_to.sset.gen_dim[ref.gen]
            recipe.append((slot[ref.gen], [table.degs[m + k][j] for k, j in enumerate(reversed(ref.degs))]))
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

    faces = [()] + [[rows(n - 1, n, tuple(v for v in range(n + 1) if v != i)) for i in range(n + 1)]
                    for n in range(1, dim_cap + 1)]
    degs = [[rows(n + 1, n, tuple(min(v, i) if v <= i + 1 else v - 1 for v in range(n + 2)))
             for i in range(n + 1)] for n in range(dim_cap)]

    def namer(n, f):
        return f"map{n}[{','.join(f'{g}>{f.assignment[g]}' for g in sorted(f.assignment))}]"

    return LevelModel(dim_cap, levels, faces, degs, namer=namer, check=False)
