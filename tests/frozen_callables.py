"""The callable route that the integer-row constructors replaced, frozen.

Level objects used to be built from `face(n, i, x)` and `deg(n, i, x)`
callables, called once per (n, i, element), their results hashed back
into positions by `op_table`.  That helper and the callables every
producer used to hand over are kept here verbatim, apart from their
names, as the oracles for the rows the producers now emit.  Each
`*_callables` function returns (levels, face, deg), or (levels, face,
deg, namer) for a level model.

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

from hornfill.cat import (
    FiniteCategory,
    PathCategoryResult,
    UnionFind,
    _cells_in_order,
    _edge_word,
    _tetra_holds,
)
from hornfill.config import DEFAULT_BUDGET, DEFAULT_PATH_BUDGET
from hornfill.errors import CapacityError, ConsistencyError, ValidationError
from hornfill.groupoid import GroupAction, symmetric_group
from hornfill.sset import (
    LevelModel,
    SimplexRef,
    SimplicialMap,
    SimplicialObject,
    enumerate_maps,
    product_structure,
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
    prods = [product_structure(a, b) for a, b in mapping_space_cylinders(x, dim_cap)]

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
