"""The callable route that the integer-row constructors replaced, frozen.

Level objects used to be built from `face(n, i, x)` and `deg(n, i, x)`
callables, called once per (n, i, element), their results hashed back
into positions by `op_table`.  That helper and the callables every
producer used to hand over are kept here verbatim, apart from their
names, as the oracles for the rows the producers now emit.  Each
`*_callables` function returns (levels, face, deg), or (levels, face,
deg, namer) for a level model.  Among them sits `oracle_product_structure`,
the product as it was built before it was presented by its
Eilenberg-Zilber pairs: every pair of simplices of the factors, handed
to a LevelModel to strip.  It is kept verbatim apart from its name and
that of its result class, as the oracle of `product_structure` and as
the product that `mapping_space_callables` builds.

After the Duskin callables comes `oracle_join`, the join of compatible
face tuples as it was before it went levelwise: a depth-first search
that chose one candidate at a time through `sset._backtrack`.  It is
kept verbatim apart from its name and its table argument, as the oracle
of `SimplicialObject.join` and as the join of the Duskin oracles.  Then
comes the Duskin nerve as it was built before it was presented by its
generators: `oracle_duskin_table` joined each level over a private
table, sorted it and appended it, and `oracle_duskin_nerve` handed that
table to a LevelModel to strip.  Both are kept verbatim apart from
their names and the join they call (`oracle_join`, so that the build is
compared with the depth-first join), with `_cells_in_order`, the sort's
column order, and `_tetra_holds`, the tetrahedron condition of both
Duskin oracles, as the oracles of `cat.duskin_nerve`.

Then come the searches that group isomorphism and the corpus's group
actions ran beside the one map search, kept verbatim apart from their
names as its oracles: generator images expanded along words, pruned by
`element_order`, which lives here as only these oracles and the tests
call it.  Last is `fundamental_category` as it was when its congruence
scanned every rule, both ways, at every position of every word, with the
`_vertex_of` it read the empty side's vertex through; it is kept verbatim
apart from its name as the oracle of the one-sided rule index that
replaced the scan.
"""

import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass, field

from hornfill.cat import (
    FiniteCategory,
    PathCategoryResult,
    UnionFind,
    _edge_word,
)
from hornfill.config import DEFAULT_BUDGET, DEFAULT_DIM_CAP, DEFAULT_PATH_BUDGET
from hornfill.errors import CapacityError, ConsistencyError, ValidationError
from hornfill.groupoid import GroupAction, symmetric_group
from hornfill.sset import (
    LevelModel,
    SimplexRef,
    SimplicialMap,
    SimplicialObject,
    SimplicialSet,
    _backtrack,
    check_int,
    enumerate_maps,
    standard_ref_of_vertices,
    standard_simplex,
    vertices_of_standard_ref,
)


def op_table(op, kind, n, level, into):
    """[[position in `into` of op(n, i, x) for x in level] for each i]."""
    table = []
    for i in range(n + 1):
        row = [into.get(op(n, i, x)) for x in level]
        if None in row:
            x, m = level[row.index(None)], n - 1 if kind == "d" else n + 1
            raise ValidationError(f"{kind}_{i} of {x!r} leaves level {m}")
        table.append(row)
    return table


def rows(level_cap, levels, face, deg):
    """(faces, degs) as the constructors take them, through `op_table`."""
    levels = [tuple(levels[n]) for n in range(level_cap + 1)]
    for n, level in enumerate(levels):
        if len(set(level)) != len(level):
            raise ValidationError(f"duplicate elements at level {n}")
    position = [{x: p for p, x in enumerate(level)} for level in levels]
    faces = [()] + [op_table(face, "d", n, levels[n], position[n - 1])
                    for n in range(1, level_cap + 1)]
    degs = [op_table(deg, "s", n, levels[n], position[n + 1]) for n in range(level_cap)]
    return faces, degs


def simplicial_object(level_cap, levels, face, deg, check=True):
    return SimplicialObject(level_cap, levels, *rows(level_cap, levels, face, deg), check=check)


def level_model(dim_cap, levels, face, deg, namer, check=True):
    return LevelModel(dim_cap, levels, *rows(dim_cap, levels, face, deg), namer, check=check)


def callables_of(levels, faces, degs):
    """face and deg callables that read rows given with their levels."""
    position = [{x: p for p, x in enumerate(level)} for level in levels]

    def face(n, i, x):
        return levels[n - 1][faces[n][i][position[n][x]]]

    def deg(n, i, x):
        return levels[n + 1][degs[n][i][position[n][x]]]

    return face, deg


def in_order_of(model, obj):
    """obj's (levels, faces, degs), renumbered into the level order of
    `model`, which holds the same elements: a bar object lists its levels
    in the order of its action groupoid's nerve."""
    perm = [[model.position[n][x] for x in level] for n, level in enumerate(obj.levels)]

    def moved(row, into, n):
        out = [None] * len(row)
        for p, q in enumerate(row):
            out[perm[n][p]] = into[q]
        return out

    levels = [tuple(moved(range(len(level)), level, n)) for n, level in enumerate(obj.levels)]
    faces = [[]] + [[moved(row, perm[n - 1], n) for row in obj.faces[n]]
                    for n in range(1, len(levels))]
    degs = [[moved(row, perm[n + 1], n) for row in obj.degs[n]] for n in range(len(levels) - 1)]
    return levels, faces, degs


def in_set_order(model):
    """A LevelModel's (levels, faces, degs), each element read as its
    normal form `ref_of` and renumbered into the order of its set's table."""
    refs = [[model.ref_of[(n, x)] for x in level] for n, level in enumerate(model.levels)]
    obj = SimplicialObject(model.level_cap, refs, model.faces, model.degs, check=False)
    return in_order_of(model.sset.table(), obj)


# -- the producers' callables ---------------------------------------------------


def cech_callables(pi, level_cap):
    levels = []
    for n in range(level_cap + 1):
        level = []
        for b in pi.cod:
            fib = pi.fiber(b)
            level.extend(itertools.product(fib, repeat=n + 1))
        levels.append(level)

    def face(n, i, x):
        return x[:i] + x[i + 1 :]

    def deg(n, i, x):
        return x[: i + 1] + x[i:]

    return levels, face, deg


def bar_callables(action, level_cap):
    g = action.group
    levels = [
        [(gs, x) for gs in itertools.product(g.elements, repeat=n) for x in action.carrier]
        for n in range(level_cap + 1)
    ]

    def face(n, i, z):
        gs, x = z
        if i == 0:
            return (gs[1:], action.act[(gs[0], x)])
        if i == n:
            return (gs[:-1], x)
        return (gs[: i - 1] + (g.mul[(gs[i], gs[i - 1])],) + gs[i + 1 :], x)

    def deg(n, i, z):
        gs, x = z
        return (gs[:i] + (g.identity(),) + gs[i:], x)

    return levels, face, deg


def punctured_callables():
    from hornfill.groupoid import FinMap

    levels, face, deg = cech_callables(FinMap(("a", "b"), ("*",), {"a": "*", "b": "*"}), 3)
    levels[3] = [x for x in levels[3] if x != ("a", "b", "a", "b")]
    return levels, face, deg


def nerve_callables(c, dim_cap):
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

    return levels, face, deg, namer


def product_callables(x, y, dim_cap=None):
    cap = min(x.dim_cap, y.dim_cap)
    if dim_cap is not None:
        cap = min(cap, dim_cap)
    levels = [
        [(a, b) for a in x.simplices(n) for b in y.simplices(n)]
        for n in range(cap + 1)
    ]
    tx, ty = x.table(cap), y.table(cap)
    face_x, deg_x = callables_of(tx.levels, tx.faces, tx.degs)
    face_y, deg_y = callables_of(ty.levels, ty.faces, ty.degs)

    def face(n, i, p):
        return (face_x(n, i, p[0]), face_y(n, i, p[1]))

    def deg(n, i, p):
        return (deg_x(n, i, p[0]), deg_y(n, i, p[1]))

    return levels, face, deg, lambda n, p: f"<{p[0]}|{p[1]}>"


# -- the product as every pair of simplices, stripped by a LevelModel ------------


@dataclass
class OracleProductStructure:
    sset: SimplicialSet
    left: SimplicialSet
    right: SimplicialSet
    model: LevelModel = field(repr=False)

    def pair_of_gen(self, g):
        return self.model.elem_of_gen[g]


def oracle_product_structure(x, y, dim_cap=None):
    """Levelwise product with componentwise structure, plus pairing data.

    Level n is the pairs of n-simplices, and d_i and s_i act on each
    factor, so every row is a pair of rows of the factors' tables.  Those
    are in range, and they satisfy the simplicial identities on factors
    that present simplicial sets (checked, or built unchecked on a proof);
    an identity holds on pairs when it holds on each factor, so the
    LevelModel skips their check.
    """
    cap = min(x.dim_cap, y.dim_cap)
    if dim_cap is not None:
        cap = min(cap, check_int(dim_cap))
    tx, ty = x.table(cap), y.table(cap)
    levels = [[(a, b) for a in tx.levels[n] for b in ty.levels[n]] for n in range(cap + 1)]

    # the pair of positions (pa, pb) is at pa * |Y_n| + pb, and every d_i
    # and s_i acts on each factor
    def pairs(rows_x, rows_y, size):
        return [[qa * size + qb for qa in ra for qb in rb] for ra, rb in zip(rows_x, rows_y)]

    faces = [()] + [
        pairs(tx.faces[n], ty.faces[n], len(ty.levels[n - 1])) for n in range(1, cap + 1)
    ]
    degs = [pairs(tx.degs[n], ty.degs[n], len(ty.levels[n + 1])) for n in range(cap)]
    model = LevelModel(cap, levels, faces, degs, namer=lambda n, p: f"<{p[0]}|{p[1]}>",
                       check=False)
    return OracleProductStructure(model.sset, x, y, model)


def image_of(assignment, tgt, ref):
    """The image of the source simplex `ref` under a map given on
    generators by `assignment`: its generator's image, then its
    degeneracy word, in the target `tgt`."""
    out = assignment[ref.gen]
    for j in reversed(ref.degs):
        out = tgt.degeneracy(out, j)
    return out


def mapping_space_cylinders(x, dim_cap):
    """The products x * standard n-simplex that `mapping_space` builds first."""
    return [(x, standard_simplex(n, dim_cap=max(x.dim_cap, n))) for n in range(dim_cap + 1)]


def mapping_space_callables(x, y, dim_cap=2, pin=None, budget=DEFAULT_BUDGET):
    prods = [oracle_product_structure(a, b) for a, b in mapping_space_cylinders(x, dim_cap)]

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
            assignment[g] = image_of(f.assignment, y, ref)
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

    return levels, face, deg, namer


# -- Duskin levels: the per-cell level search and per-element reindex -----------


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


def _duskin_pack(n, elem):
    """Down-convert the uniform (verts, edges, tris) shape to the level type."""
    verts, e, t = elem
    if n == 0:
        return verts[0]
    if n == 1:
        return e[0]
    return (e, t)


def _oracle_npts(edge_tuple):
    # len(e) == C(m+1, 2) determines the number of vertices m + 1
    m = 1
    while m * (m + 1) // 2 < len(edge_tuple):
        m += 1
    return m + 1


def _oracle_duskin_unpack(c2, n, x):
    if n == 0:
        return ((x,), (), ())
    if n == 1:
        s, t = c2.one[x]
        return ((s, t), (x,), ())
    e, t = x
    verts = [c2.one[e[0]][0]]
    pos = {p: idx for idx, p in enumerate(sorted(
        (i, j) for j in range(_oracle_npts(e)) for i in range(j)))}
    for i in range(_oracle_npts(e) - 1):
        verts.append(c2.one[e[pos[(i, i + 1)]]][1])
    return (tuple(verts), e, t)


def _oracle_duskin_reindex(c2, n_from, elem, alpha):
    """Relabel an n_from-simplex along alpha, rebuilding the index maps."""
    verts, e, t = elem
    n_to = len(alpha) - 1
    epos = {p: idx for idx, p in enumerate(sorted(
        (i, j) for j in range(n_from + 1) for i in range(j)))}
    tpos = {p: idx for idx, p in enumerate(sorted(
        (i, j, k) for k in range(n_from + 1) for j in range(k) for i in range(j)))}

    def edge_at(i, j):
        a, b = alpha[i], alpha[j]
        if a == b:
            return c2.cat.identity[verts[a]]
        return e[epos[(a, b)]]

    def tri_at(i, j, k):
        a, b, c = alpha[i], alpha[j], alpha[k]
        if a == b == c:
            return c2.two_identity[c2.cat.identity[verts[a]]]
        if a == b:
            return c2.two_identity[e[epos[(b, c)]]]
        if b == c:
            return c2.two_identity[e[epos[(a, b)]]]
        return t[tpos[(a, b, c)]]

    new_verts = tuple(verts[alpha[i]] for i in range(n_to + 1))
    new_e = tuple(
        edge_at(i, j)
        for (i, j) in sorted((i, j) for j in range(n_to + 1) for i in range(j))
    )
    new_t = tuple(
        tri_at(i, j, k)
        for (i, j, k) in sorted(
            (i, j, k) for k in range(n_to + 1) for j in range(k) for i in range(j)
        )
    )
    return new_verts, new_e, new_t


def duskin_callables(c2, dim_cap):
    levels = [list(c2.objects), sorted(c2.one)] + [
        [_duskin_pack(n, x) for x in _enumerate_duskin_level(c2, n, DEFAULT_BUDGET)]
        for n in range(2, dim_cap + 1)
    ]

    def face(n, i, x):
        full = _oracle_duskin_unpack(c2, n, x)
        alpha = tuple(v for v in range(n + 1) if v != i)
        return _duskin_pack(n - 1, _oracle_duskin_reindex(c2, n, full, alpha))

    def deg(n, i, x):
        full = _oracle_duskin_unpack(c2, n, x)
        alpha = tuple(range(i + 1)) + tuple(range(i, n + 1))
        return _duskin_pack(n + 1, _oracle_duskin_reindex(c2, n, full, alpha))

    def namer(n, x):
        if n < 2:
            return str(x)
        e, t = x
        return "{" + ",".join(e) + "|" + ",".join(t) + "}"

    return levels[:dim_cap + 1], face, deg, namer


# -- the depth-first join of compatible face tuples ------------------------------


def oracle_join(table, n, slots, budget, spent=0, keep=None):
    """Compatible face tuples over level n - 1 of `table`, as positions, and
    the trials spent: tuples (y_i), i in `slots` (increasing, in [n]), with
    d_i y_j = d_{j-1} y_i for i < j (May, Simplicial Objects in
    Algebraic Topology, Def. 1.3).  Slots i != k give the maps of the
    (n, k)-horn, all of [n] those of the boundary.  The entries are the
    choices of `_backtrack`: y_j is looked up by the faces it shares
    with the entries chosen, and `keep` filters complete tuples.  Each
    candidate tried is one trial, `spent` already used; past `budget` a
    CapacityError carries the tuples kept as partial.
    """
    slots = tuple(slots)
    indexes = [table.face_index(n - 1, slots[:s]) for s in range(len(slots))]
    # y_j's key: d_{j-1} of each entry already chosen (none for the first)
    rows = [None] + [table.faces[n - 1][j - 1].__getitem__ for j in slots[1:]]
    accept = tuple if keep is None else lambda chosen: (
        t if keep(t := tuple(chosen)) else None)
    return _backtrack(
        len(slots), lambda s, chosen: indexes[s].get(tuple(map(rows[s], chosen)), ()),
        accept, budget, "join", spent)


# -- the Duskin nerve as a sorted join table stripped by a LevelModel ---------


# an oracle Duskin nerve: its set, its 2-category and the LevelModel that presents the set
DuskinModel = namedtuple("DuskinModel", "sset two_category model")


def oracle_duskin_table(c2, dim_cap, budget):
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
            tuples, trials = oracle_join(
                table, n, range(n + 1), budget, trials, tetrahedron if n == 3 else None
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


def oracle_duskin_nerve(c2, dim_cap=DEFAULT_DIM_CAP, budget=DEFAULT_BUDGET):
    """Nerve of a strict 2-category; 3-coskeletal.

    Level 2 collects one 2-cell witness per triangle of 1-cells; level 3
    keeps the compatible quadruples of triangles whose two contraction
    routes agree; each higher level is every compatible tuple of faces,
    found by the boundary join (`oracle_duskin_table`).  An n-simplex, n >= 2,
    is its edge and triangle labels in lex order.  The budget counts the
    candidate triangles and join trials of the whole build.

    A Finite2Category may be built unchecked, so `c2.validate()` runs
    first.  On a strict 2-category the rows are in range and satisfy the
    simplicial identities, so the LevelModel skips their check:

    - levels 0-2 are read off the 2-category: a triangle (f, e, g; t) has
      t: g o f => e, so its three edges meet at three vertices, and by the
      unit laws (id, f, f; id2 f) and (f, f, id; id2 f), its degeneracies
      s_0 f and s_1 f, are triangles;
    - level 3 keeps the compatible quadruples that pass `_tetra_holds`, and
      a degenerate one passes: on s_j of (f, e, g; t) both routes reduce to
      t by the vertical and horizontal unit laws and id2 g * id2 f =
      id2(g o f);
    - each level n >= 3 is the join's output, whose elements are their own
      face tuples, so the face identities are the join's compatibility
      condition.  s_j x is looked up by the faces d_i s_j x that the
      identities prescribe; they are compatible by the identities below,
      so the tuple is in level n (at n = 3 by the point above), and it is
      unique, as an element is its faces.  s_i s_j = s_{j+1} s_i holds as
      both sides have the same faces.
    """
    c2.validate()
    table, values = oracle_duskin_table(c2, dim_cap, budget)

    def namer(n, x):
        if n < 2:
            return str(x)
        e, t = x
        return "{" + ",".join(e) + "|" + ",".join(t) + "}"

    model = LevelModel(dim_cap, values, table.faces, table.degs, namer=namer, check=False)
    return DuskinModel(model.sset, c2, model)


def word_table(group):
    """The generating sequence, and every element as a word in it.

    Breadth first, so each generator gets its one-letter word.  The word
    (k1, k2, ...) stands for the product gens[k1] gens[k2] ...
    """
    gens = group.generating_sequence()
    words = {group.identity(): ()}
    frontier = [group.identity()]
    while frontier:
        x = frontier.pop(0)
        for k, gen in enumerate(gens):
            y = group.mul[(x, gen)]
            if y not in words:
                words[y] = words[x] + (k,)
                frontier.append(y)
    if len(words) != group.order():
        raise ValidationError("generating sequence failed to generate")
    return gens, words


def evaluate_word(group, images, word):
    """The product of images[k] over the letters k of a word, in order."""
    val = group.identity()
    for k in word:
        val = group.mul[(val, images[k])]
    return val


def element_order(group, a):
    """The least n >= 1 with a^n the identity."""
    e, x, n = group.identity(), a, 1
    while x != e:
        x = group.mul[(x, a)]
        n += 1
    return n


def oracle_groups_isomorphic(g, h, budget=DEFAULT_BUDGET):
    """An isomorphism as a dict, or None.  Exhaustive over generator images,
    pruned by element orders; every candidate is verified on the full table.
    A CapacityError carries the number of generator images fixed when the
    budget ran out as partial."""
    if g.order() != h.order():
        return None
    if sorted(element_order(g, a) for a in g.elements) != sorted(
            element_order(h, b) for b in h.elements):
        return None
    gens, expr = word_table(g)
    nodes = 0

    def build(images):
        phi = {x: evaluate_word(h, images, word) for x, word in expr.items()}
        if len(set(phi.values())) != h.order():
            return None
        for a in g.elements:
            for b in g.elements:
                if h.mul[(phi[a], phi[b])] != phi[g.mul[(a, b)]]:
                    return None
        return phi

    def rec(i, images):
        nonlocal nodes
        if i == len(gens):
            return build(images)
        want = element_order(g, gens[i])
        for y in h.elements:
            if element_order(h, y) != want:
                continue
            nodes += 1
            if nodes > budget:
                raise CapacityError(f"group isomorphism search exceeded budget {budget}", partial=i)
            got = rec(i + 1, images + [y])
            if got is not None:
                return got
        return None

    return rec(0, [])


def oracle_all_actions(group, n_points):
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


# -- the path category's rule scan ------------------------------------------------

def _vertex_of(x, ref):
    """Source vertex of a possibly-degenerate edge reference."""
    if ref.degs:
        return ref.gen
    return x.gen_faces[ref.gen][1].gen


def oracle_fundamental_category(x, path_budget=DEFAULT_PATH_BUDGET, max_length=32):
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
        return index, classes.find, classes.classes

    length = 2
    while True:
        if length > max_length:
            raise CapacityError(
                f"path quotient not stable within length bound {max_length};"
                " the quotient category may be infinite",
                partial=length,
            )
        universe = grow(length)
        index, find, classes_of = congruence(universe)
        probe = grow(length + 1)
        pindex, pfind, _ = congruence(probe)
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
            # universe[i] is the word of index i
            classes = {r: [universe[i] for i in ws] for r, ws in classes_of().items()}
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

    # the loop leaves only through a stable universe, with its classes
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
