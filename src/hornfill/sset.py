"""Finite truncated simplicial sets, exactly.

A simplicial set is presented by its non-degenerate simplices and their
face lists.  Every simplex has a unique normal form: a strictly decreasing
degeneracy word applied to a non-degenerate generator (Eilenberg-Zilber).
`SimplexRef` names a simplex that way, in JSON and in reports:
`(g, (i1, ..., ik))` with `i1 > ... > ik` is `s_{i1} s_{i2} ... s_{ik} g`.
Internally each set keeps one integer level table, `SimplicialSet.table()`,
whose level n is `simplices(n)`.  The calculus below fills it once, or a
`LevelModel` hands over its own tables; everything else reads positions in it.
Maps, isomorphisms and (through nerves) functors are found by one search,
`_map_search`, that gives each source generator a target simplex by one
face-index lookup on those positions.

All sets are truncated at `dim_cap`.  Everything here is exact enumeration
over finite data; there is no tolerance parameter anywhere.

Operator identities used by the calculus (operators act on the left):

    d_i d_j = d_{j-1} d_i             (i < j)
    s_i s_j = s_{j+1} s_i             (i <= j)
    d_i s_j = s_{j-1} d_i             (i < j)
    d_j s_j = id = d_{j+1} s_j
    d_i s_j = s_j d_{i-1}             (i > j + 1)
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass, field

from .config import DEFAULT_BUDGET, DEFAULT_DIM_CAP, MAX_STANDARD_DIM
from .errors import CapacityError, ConsistencyError, InputError, ValidationError


class SimplexRef(namedtuple("SimplexRef", ("gen", "degs"), defaults=((),))):
    """A simplex in normal form: degeneracy word over a generator.

    A plain tuple (gen, degs) underneath, so equality, hashing and order
    are the tuple's and run in C.
    """

    __slots__ = ()

    def __str__(self):
        if not self.degs:
            return self.gen
        return self.gen + "".join(f".s{j}" for j in self.degs)

    def to_json(self):
        if not self.degs:
            return self.gen
        return {"gen": self.gen, "deg": list(self.degs)}

    @staticmethod
    def from_json(obj):
        if isinstance(obj, str):
            return SimplexRef(obj)
        if (
            isinstance(obj, dict) and set(obj) == {"gen", "deg"}
            and isinstance(obj["gen"], str) and isinstance(obj["deg"], list)
        ):
            degs = tuple(obj["deg"])
            if not all(type(j) is int and j >= 0 for j in degs):
                raise InputError(f"bad degeneracy word {obj['deg']!r}")
            if any(a <= b for a, b in zip(degs, degs[1:])):
                raise InputError(f"degeneracy word not strictly decreasing: {obj['deg']!r}")
            return SimplexRef(obj["gen"], degs)
        raise InputError(f"bad simplex reference {obj!r}")


def insert_degeneracy(degs, j):
    """Normal form of s_j applied outside the decreasing word `degs`.

    Uses s_i s_j = s_{j+1} s_i (i <= j) to bubble j into place.
    """
    out = []
    i = 0
    while i < len(degs) and j <= degs[i]:
        out.append(degs[i] + 1)
        i += 1
    out.append(j)
    out.extend(degs[i:])
    return tuple(out)


def decreasing_words(length, bound):
    """All strictly decreasing words of the given length with letters < bound."""
    if length == 0:
        return ((),)
    return tuple(
        tuple(sorted(c, reverse=True))
        for c in itertools.combinations(range(bound), length)
    )


class SimplicialSet:
    """Truncated simplicial set presented by non-degenerate generators.

    generators: {dimension: iterable of ids}
    faces: {id: sequence of SimplexRef}, one entry per generator of dim >= 1,
           faces[g][i] = d_i g in normal form.
    """

    def __init__(self, dim_cap, generators, faces, check=True):
        if type(dim_cap) is not int or dim_cap < 0:
            raise InputError(f"dim_cap must be a non-negative integer, got {dim_cap!r}")
        self.dim_cap = dim_cap
        self.gens = {}
        self.gen_dim = {}
        for d in sorted(generators):
            ids = tuple(sorted(generators[d]))
            if not ids:
                continue
            if d < 0 or d > dim_cap:
                raise InputError(f"generator dimension {d} outside [0, {dim_cap}]")
            self.gens[d] = ids
            for g in ids:
                if g in self.gen_dim:
                    raise ValidationError(f"duplicate generator id {g!r}")
                self.gen_dim[g] = d
        unknown = [g for g in faces if g not in self.gen_dim]
        if unknown:
            raise ValidationError(f"face list keyed by unknown generator {unknown[0]!r}")
        self.gen_faces = {g: tuple(faces[g]) for g in faces}
        self._level_table = SimplicialObject(-1, [], None, None, check=False)
        if check:
            self.validate()

    # -- basic structure ---------------------------------------------------

    def generators(self, n):
        return self.gens.get(n, ())

    def all_generators(self):
        for d in sorted(self.gens):
            for g in self.gens[d]:
                yield g

    def dim_of(self, ref):
        if ref.gen not in self.gen_dim:
            raise InputError(f"unknown generator {ref.gen!r}")
        return self.gen_dim[ref.gen] + len(ref.degs)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialSet)
            and self.dim_cap == other.dim_cap
            and self.gens == other.gens
            and self.gen_faces == other.gen_faces
        )

    def __repr__(self):
        counts = ",".join(f"{d}:{len(self.gens[d])}" for d in sorted(self.gens))
        return f"SimplicialSet(cap={self.dim_cap}, gens[{counts}])"

    # -- the operator calculus ---------------------------------------------

    def face(self, ref, i):
        """d_i in normal form, for any represented simplex."""
        n = self.dim_of(ref)
        if n == 0:
            raise InputError("a vertex has no faces")
        if not 0 <= i <= n:
            raise InputError(f"face index {i} out of range for dimension {n}")
        return self._face(ref, i)

    def _face(self, ref, i):
        degs = ref.degs
        pending = []
        for pos, j in enumerate(degs):
            if i < j:
                pending.append(j - 1)
            elif i == j or i == j + 1:
                word = tuple(pending) + degs[pos + 1:]
                return SimplexRef(ref.gen, word)
            else:
                pending.append(j)
                i -= 1
        out = self.gen_faces[ref.gen][i]
        for j in reversed(pending):
            out = SimplexRef(out.gen, insert_degeneracy(out.degs, j))
        return out

    def degeneracy(self, ref, j):
        """s_j in normal form."""
        n = self.dim_of(ref)
        if not 0 <= j <= n:
            raise InputError(f"degeneracy index {j} out of range for dimension {n}")
        return SimplexRef(ref.gen, insert_degeneracy(ref.degs, j))

    def apply_word(self, gen, word):
        """Normalize an operator word applied to a generator.

        `word` is a sequence of "d<i>" / "s<j>" tokens (or ("d", i) pairs)
        written as a composite, so the last entry acts first.
        """
        if gen not in self.gen_dim:
            raise InputError(f"unknown generator {gen!r}")
        cur = SimplexRef(gen)
        for op in reversed([_parse_op(w) for w in word]):
            kind, idx = op
            if kind == "d":
                cur = self.face(cur, idx)
            else:
                cur = self.degeneracy(cur, idx)
        return cur

    def restrict(self, ref, alpha):
        """Pull `ref` back along a monotone map, alpha: [m] -> [dim ref].

        The injective part of alpha is read off the table's restriction
        table; each repeated value of alpha is then a degeneracy.
        """
        n = self.dim_of(ref)
        alpha = tuple(alpha)
        if not alpha:
            raise InputError("empty reindexing map")
        if any(a > b for a, b in zip(alpha, alpha[1:])) or alpha[0] < 0 or alpha[-1] > n:
            raise InputError(f"{alpha} is not monotone into [0, {n}]")
        table = self.table(min(n, self.dim_cap))
        p = table.position[n].get(ref) if n <= self.dim_cap else None
        if p is None:
            raise InputError(f"{ref} is not a simplex of {self!r}")
        image = sorted(set(alpha))
        cur = table.levels[len(image) - 1][table.restriction_table(n, image)[p]]
        for j in range(len(alpha) - 1):
            if alpha[j] == alpha[j + 1]:
                cur = self.degeneracy(cur, j)
        return cur

    # -- enumeration ---------------------------------------------------------

    def simplices(self, n):
        """All n-simplices in normal form, non-degenerate generators first:
        level n of the table."""
        return self.table(n).levels[n]

    def count(self, n):
        return len(self.simplices(n))

    def table(self, through=None):
        """The one SimplicialObject whose level n is simplices(n), built
        level by level through `through` (dim_cap by default) on first
        need: the one place the normal-form calculus runs for every simplex.
        """
        top = self.dim_cap if through is None else through
        if not 0 <= top <= self.dim_cap:
            raise InputError(f"dimension {top} outside [0, {self.dim_cap}]")
        table = self._level_table
        while table.level_cap < top:
            table.add_level(
                self._normal_forms(table.level_cap + 1),
                lambda n, i, t: self._face(t, i),
                lambda n, j, t: SimplexRef(t.gen, insert_degeneracy(t.degs, j)),
            )
        return table

    def _normal_forms(self, n):
        """Every normal form of dimension n, in `simplices(n)` order."""
        return tuple(SimplexRef(g, word) for m in range(n, -1, -1) for g in self.gens.get(m, ())
                     for word in decreasing_words(n - m, n))

    def filler_index(self, n, k):
        """`face_index` of level n of the table with d_k dropped."""
        return self.table(n).face_index(n, tuple(i for i in range(n + 1) if i != k))

    # -- validation ----------------------------------------------------------

    def validate(self, deep=False):
        # Each distinct face (d, ref) is checked once per call, and its own
        # face row derived once: generators share most of their faces.
        checked = set()
        for g, d in self.gen_dim.items():
            if d == 0:
                if g in self.gen_faces:
                    raise ValidationError(f"vertex {g!r} must not carry faces")
                continue
            if g not in self.gen_faces:
                raise ValidationError(f"generator {g!r} has no face list")
            fs = self.gen_faces[g]
            if len(fs) != d + 1:
                raise ValidationError(f"{g!r} has {len(fs)} faces, expected {d + 1}")
            for i, ref in enumerate(fs):
                if (d, ref) in checked:
                    continue
                if ref.gen not in self.gen_dim:
                    raise ValidationError(f"face d_{i} of {g!r} hits unknown {ref.gen!r}")
                if any(a <= b for a, b in zip(ref.degs, ref.degs[1:])):
                    raise ValidationError(f"face d_{i} of {g!r} not in normal form")
                if self.dim_of(ref) != d - 1:
                    raise ValidationError(
                        f"face d_{i} of {g!r} has dimension {self.dim_of(ref)}, expected {d - 1}"
                    )
                if ref.degs and ref.degs[0] > d - 2:
                    raise ValidationError(f"face d_{i} of {g!r} has out-of-range word")
                checked.add((d, ref))
        # d_i d_j = d_{j-1} d_i for i < j, on generators; together with the
        # normal-form calculus this forces all identities on all simplices.
        # Every face now has dimension d - 1, so a ref fixes its face row.
        if deep:
            table = self.table()
            face = lambda ref, i: table.face(self.dim_of(ref), i, ref)
        else:
            face = self._face
        rows_of = {}
        for g, d in self.gen_dim.items():
            if d < 2:
                continue
            rows = []
            for ref in self.gen_faces[g]:
                row = rows_of.get(ref)
                if row is None:
                    row = rows_of[ref] = tuple(face(ref, i) for i in range(d))
                rows.append(row)
            for j in range(d + 1):
                for i in range(j):
                    if rows[j][i] != rows[i][j - 1]:
                        raise ValidationError(
                            f"d_{i} d_{j} != d_{j - 1} d_{i} on generator {g!r}"
                        )
        if deep:
            table.validate()


def _parse_op(w):
    if isinstance(w, tuple) and len(w) == 2 and w[0] in ("d", "s"):
        kind, idx = w
    elif isinstance(w, str) and len(w) >= 2 and w[0] in ("d", "s") and w[1:].isdigit():
        kind, idx = w[0], int(w[1:])
    else:
        raise InputError(f"bad operator token {w!r}")
    if not isinstance(idx, int) or idx < 0:
        raise InputError(f"bad operator index in {w!r}")
    return kind, idx


def normalize(sset, gen, word):
    """Public entry point: normal form of `word` applied to `gen`."""
    return sset.apply_word(gen, word)


# -- standard simplices, boundaries, horns ----------------------------------


def _subset_id(s):
    return "".join(str(v) for v in s)


def standard_simplex(n, dim_cap=None):
    """The n-simplex: generators are the strictly increasing subsets of {0..n}."""
    if not isinstance(n, int) or n < 0:
        raise InputError(f"simplex dimension must be a non-negative integer, got {n!r}")
    if n > MAX_STANDARD_DIM:
        raise CapacityError(f"standard simplex capped at dimension {MAX_STANDARD_DIM}, got {n}")
    if dim_cap is None:
        dim_cap = max(n, DEFAULT_DIM_CAP)
    if dim_cap < n:
        raise InputError(f"dim_cap {dim_cap} below simplex dimension {n}")
    return _simplex_subcomplex(n, dim_cap, lambda s: True)


def subcomplex_of_simplex(n, kind, k=None, dim_cap=None):
    """Boundary or horn of the standard n-simplex.

    kind = "boundary": all proper faces.
    kind = "horn": all faces except the k-th; 0 <= k <= n (inner iff 0<k<n).
    """
    if not isinstance(n, int) or n < 1:
        raise InputError(f"boundary/horn needs n >= 1, got {n!r}")
    if n > MAX_STANDARD_DIM:
        raise CapacityError(f"standard simplex capped at dimension {MAX_STANDARD_DIM}, got {n}")
    if dim_cap is None:
        dim_cap = max(n, DEFAULT_DIM_CAP)
    full = tuple(range(n + 1))
    if kind == "boundary":
        if k is not None:
            raise InputError("boundary takes no horn index")
        keep = lambda s: s != full
    elif kind == "horn":
        if k is None or not 0 <= k <= n:
            raise InputError(f"horn index must satisfy 0 <= k <= {n}, got {k!r}")
        missing = tuple(v for v in full if v != k)
        keep = lambda s: s != full and s != missing
    else:
        raise InputError(f"unknown subcomplex kind {kind!r}")
    return _simplex_subcomplex(n, dim_cap, keep)


def _simplex_subcomplex(n, dim_cap, keep):
    generators = {}
    faces = {}
    for m in range(min(n, dim_cap) + 1):
        ids = []
        for s in itertools.combinations(range(n + 1), m + 1):
            if not keep(s):
                continue
            ids.append(_subset_id(s))
            if m >= 1:
                faces[_subset_id(s)] = tuple(
                    SimplexRef(_subset_id(s[:i] + s[i + 1:])) for i in range(m + 1)
                )
        if ids:
            generators[m] = ids
    return SimplicialSet(dim_cap, generators, faces)


def vertices_of_standard_ref(sset, ref):
    """A standard-simplex simplex as its weakly increasing vertex tuple."""
    verts = tuple(int(c) for c in ref.gen)
    out = verts
    for j in reversed(ref.degs):
        out = out[: j + 1] + out[j:]
    return out


def standard_ref_of_vertices(tup):
    """Normal form of a weakly increasing vertex tuple in a standard simplex."""
    if any(a > b for a, b in zip(tup, tup[1:])):
        raise InputError(f"vertex tuple {tup} is not monotone")
    word = tuple(i for i in range(len(tup) - 1) if tup[i] == tup[i + 1])[::-1]
    base = []
    for v in tup:
        if not base or base[-1] != v:
            base.append(v)
    return SimplexRef(_subset_id(base), word)


# -- simplicial maps ---------------------------------------------------------


class SimplicialMap:
    """A map of truncated simplicial sets, given on generators.

    `assignment` sends every source generator of dimension <= up_to to a
    simplex reference of the target of the same dimension; compatibility
    with faces is checked on the target's level table, degeneracies then
    commute by normal form.
    """

    def __init__(self, src, tgt, assignment, up_to=None, check=True):
        self.src = src
        self.tgt = tgt
        self.up_to = src.dim_cap if up_to is None else up_to
        self.assignment = dict(assignment)
        if check:
            self.validate()

    def validate(self):
        """Source faces from `gen_faces`, image faces from the target's
        table; an image must be a simplex of the truncated target."""
        cap = min(self.up_to, self.tgt.dim_cap)
        table = self.tgt.table(cap)
        at = {}
        for d in range(self.up_to + 1):
            for g in self.src.generators(d):
                if g not in self.assignment:
                    raise ValidationError(f"generator {g!r} has no image")
                img = self.assignment[g]
                if img.gen not in self.tgt.gen_dim:
                    raise ValidationError(f"image of {g!r} hits unknown {img.gen!r}")
                if self.tgt.dim_of(img) != d:
                    raise ValidationError(f"image of {g!r} has wrong dimension")
                p = at[g] = table.position[d].get(img) if d <= cap else None
                if p is None:
                    raise ValidationError(f"image of {g!r} is not a simplex of {self.tgt!r}")
                for i, f in enumerate(self.src.gen_faces[g] if d else ()):
                    q, m = at[f.gen], self.src.gen_dim[f.gen]
                    for j in reversed(f.degs):
                        q, m = table.degs[m][j][q], m + 1
                    if table.faces[d][i][p] != q:
                        raise ValidationError(f"map does not commute with d_{i} at {g!r}")

    def apply(self, ref):
        out = self.assignment[ref.gen]
        for j in reversed(ref.degs):
            out = self.tgt.degeneracy(out, j)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.assignment == other.assignment
            and self.up_to == other.up_to
        )

    def __hash__(self):
        return hash(tuple(sorted(self.assignment.items())))

    def __repr__(self):
        return f"SimplicialMap({len(self.assignment)} generators)"


def _search_order(src, cap):
    """Source generators through `cap` in search order: edges in id order,
    each after its vertices not yet placed, then the vertices on no edge;
    every generator of dimension >= 2 right after the last of its faces."""
    waiting, dependents = {}, {}
    for d in range(2, cap + 1):
        for g in src.generators(d):
            below = {f.gen for f in src.gen_faces[g]}
            waiting[g] = len(below)
            for h in below:
                dependents.setdefault(h, []).append(g)
    order, placed = [], set()

    def place(g):
        order.append(g)
        placed.add(g)
        for h in dependents.get(g, ()):
            waiting[h] -= 1
            if not waiting[h]:
                place(h)

    for e in src.generators(1) if cap >= 1 else ():
        ends = sorted({f.gen for f in src.gen_faces[e]})
        for v in ends:
            if v not in placed and src.gen_dim.get(v) == 0:
                place(v)
        if placed.issuperset(ends):
            place(e)
    for v in src.generators(0):
        if v not in placed:
            place(v)
    if len(order) != sum(len(src.generators(d)) for d in range(cap + 1)):
        raise ConsistencyError("no ready generator; face data is inconsistent")
    return order


def _map_search(src, tgt, cap, budget, fixed=None, bijective=False):
    """The one map search: assignments of the source generators through
    `cap` to simplices of tgt, commuting with faces.

    Each generator is given a simplex of its dimension by one face-index
    lookup in `tgt.table(cap)`, keyed on the positions of its faces'
    images; a degenerate face's image is read from the degeneracy table.
    `fixed` pins are one-candidate sets.  The bijective case takes unused
    non-degenerate simplices only (they come first in each level) and
    stops at the first hit.  Every candidate tried is one trial; past
    `budget` a CapacityError carries the assignments found as partial, or
    in the bijective case the generators matched.
    """
    order = _search_order(src, cap)
    table = tgt.table(cap)
    slot = {g: i for i, g in enumerate(order)}
    dims = [src.gen_dim[g] for g in order]
    recipes = [
        tuple(
            (slot[f.gen], [table.degs[src.gen_dim[f.gen] + k][j]
                           for k, j in enumerate(reversed(f.degs))])
            for f in src.gen_faces[g]
        ) if d else ()
        for g, d in zip(order, dims)
    ]
    indexes = {d: table.face_index(d) for d in set(dims) if d}
    pins = {slot[g]: table.position[src.gen_dim[g]][ref] for g, ref in (fixed or {}).items()}
    free = [len(tgt.generators(d)) for d in range(cap + 1)]
    pos = [None] * len(order)
    used, hits, trials = set(), [], 0

    def candidates(i):
        d = dims[i]
        if not d:
            found = range(len(table.levels[0]))
        else:
            key = []
            for s, rows in recipes[i]:
                q = pos[s]
                for row in rows:
                    q = row[q]
                key.append(q)
            found = indexes[d].get(tuple(key), ())
        if i in pins:
            return [pins[i]] if pins[i] in found else []
        if bijective:
            return [p for p in found if p < free[d] and (d, p) not in used]
        return found

    def extend(i):
        nonlocal trials
        if i == len(order):
            hits.append({g: table.levels[d][p] for g, d, p in zip(order, dims, pos)})
            return bijective
        for p in candidates(i):
            trials += 1
            if trials > budget:
                raise CapacityError(
                    f"{'isomorphism' if bijective else 'map'} search exceeded budget {budget}",
                    partial=i if bijective else len(hits),
                )
            pos[i] = p
            used.add((dims[i], p))
            if extend(i + 1):
                return True
            used.discard((dims[i], p))
        return False

    extend(0)
    return hits


def enumerate_maps(src, tgt, dim_cap=None, budget=DEFAULT_BUDGET, fixed=None):
    """All simplicial maps src -> tgt on the <= dim_cap skeleton.

    Deterministic: the result list is sorted by the images of the source
    generators taken in (dimension, id) order, whatever order the search
    (`_map_search`) takes them in.  Raises CapacityError when more than
    `budget` candidate trials are spent.
    """
    cap = min(src.dim_cap, tgt.dim_cap)
    if dim_cap is not None:
        if dim_cap < 0:
            raise InputError(f"bad dim_cap {dim_cap}")
        cap = min(cap, dim_cap)
    for g, ref in (fixed or {}).items():
        if g not in src.gen_dim or src.gen_dim[g] > cap:
            raise InputError(f"fixed generator {g!r} unknown or above cap")
        if tgt.dim_of(ref) != src.gen_dim[g]:
            raise InputError(f"fixed image for {g!r} has wrong dimension")
        if ref not in tgt.table(cap).position[src.gen_dim[g]]:
            raise InputError(f"fixed image for {g!r} is not a simplex of {tgt!r}")
    order = [g for d in range(cap + 1) for g in src.generators(d)]
    hits = _map_search(src, tgt, cap, budget, fixed)
    hits.sort(key=lambda a: tuple(a[g] for g in order))
    return [SimplicialMap(src, tgt, a, up_to=cap, check=False) for a in hits]


def is_isomorphic(a, b, budget=DEFAULT_BUDGET):
    """A generator bijection commuting with faces, as a map, or None.

    Exhaustive at the common dimension cap, so None is a proof of
    non-isomorphism for truncated sets of equal cap: the bijective case of
    `_map_search`.  A CapacityError carries the number of generators
    matched when the budget ran out as partial.
    """
    if a.dim_cap != b.dim_cap:
        return None
    for d in set(a.gens) | set(b.gens):
        if len(a.generators(d)) != len(b.generators(d)):
            return None
    hits = _map_search(a, b, a.dim_cap, budget, bijective=True)
    return SimplicialMap(a, b, hits[0]) if hits else None


# -- levelwise simplicial objects ----------------------------------------------


def _op_table(op, kind, n, level, into):
    """[[position in `into` of op(n, i, x) for x in level] for each i]."""
    table = []
    for i in range(n + 1):
        row = [into.get(op(n, i, x)) for x in level]
        if None in row:
            x, m = level[row.index(None)], n - 1 if kind == "d" else n + 1
            raise ValidationError(f"{kind}_{i} of {x!r} leaves level {m}")
        table.append(row)
    return table


class SimplicialObject:
    """A truncated simplicial object in finite sets, on integer tables.

    The elements of each level are numbered in the order given.  The
    callables `face(n, i, x)` and `deg(n, i, x)` are called once per
    (n, i, element) and their results kept as positions: `faces[n][i][p]`
    is the position of d_i of element p of level n in level n - 1, and
    `degs[n][i][p]` that of s_i in level n + 1.  Everything else reads
    these tables.
    """

    def __init__(self, level_cap, levels, face, deg, check=True):
        self.level_cap = -1
        self.levels, self.position, self.faces, self.degs = [], [], [], []
        self._restrictions, self._indexes = {}, {}
        for n in range(level_cap + 1):
            self.add_level(levels[n], face, deg)
        if check:
            self.validate()

    def add_level(self, level, face, deg):
        """Append level level_cap + 1, its face table and the degeneracy
        table into it; nothing is appended if a table fails."""
        n = self.level_cap + 1
        level = tuple(level)
        position = {x: p for p, x in enumerate(level)}
        if len(position) != len(level):
            raise ValidationError(f"duplicate elements at level {n}")
        faces = _op_table(face, "d", n, level, self.position[n - 1]) if n else ()
        if n:
            self.degs.append(_op_table(deg, "s", n - 1, self.levels[n - 1], position))
        self.levels.append(level)
        self.position.append(position)
        self.faces.append(faces)
        self.level_cap = n

    def _agree(self, n, got, want, identity):
        if got != want:
            p = next(p for p, (a, b) in enumerate(zip(got, want)) if a != b)
            raise ValidationError(
                f"{identity} fails at level {n} on {self.levels[n][p]!r}"
            )

    def validate(self):
        """The simplicial identities, checked on the tables."""
        fs, ss = self.faces, self.degs
        for n in range(2, self.level_cap + 1):
            for j in range(n + 1):
                for i in range(j):
                    self._agree(
                        n,
                        [fs[n - 1][i][q] for q in fs[n][j]],
                        [fs[n - 1][j - 1][q] for q in fs[n][i]],
                        f"d_{i} d_{j} = d_{j - 1} d_{i}",
                    )
        for n in range(self.level_cap):
            ident = list(range(len(self.levels[n])))
            for j in range(n + 1):
                sj = ss[n][j]
                for i in range(n + 2):
                    if i == j or i == j + 1:
                        want, rule = ident, f"d_{i} s_{j} = id"
                    elif i < j:
                        want = [ss[n - 1][j - 1][q] for q in fs[n][i]]
                        rule = f"d_{i} s_{j} = s_{j - 1} d_{i}"
                    else:
                        want = [ss[n - 1][j][q] for q in fs[n][i - 1]]
                        rule = f"d_{i} s_{j} = s_{j} d_{i - 1}"
                    self._agree(n, [fs[n + 1][i][q] for q in sj], want, rule)
            if n + 2 <= self.level_cap:
                for j in range(n + 1):
                    for i in range(j + 1):
                        self._agree(
                            n,
                            [ss[n + 1][i][q] for q in ss[n][j]],
                            [ss[n + 1][j + 1][q] for q in ss[n][i]],
                            f"s_{i} s_{j} = s_{j + 1} s_{i}",
                        )

    def first_disagreement(self, other, at):
        """The first (kind, n, i), kind "face" or "degeneracy", at which
        this object's tables and `other`'s disagree under the levelwise map
        `at` (at[n][p]: the position in other's level n of element p of
        level n here), or None when the map commutes with every d_i, s_i."""
        for kind, step, ours, theirs in (
            ("face", -1, self.faces, other.faces),
            ("degeneracy", 1, self.degs, other.degs),
        ):
            for n, rows in enumerate(ours):
                for i, row in enumerate(rows):
                    if [at[n + step][q] for q in row] != [theirs[n][i][p] for p in at[n]]:
                        return kind, n, i
        return None

    def face(self, n, i, x):
        return self.levels[n - 1][self.faces[n][i][self.position[n][x]]]

    def deg(self, n, i, x):
        return self.levels[n + 1][self.degs[n][i][self.position[n][x]]]

    def restriction_table(self, n, subset):
        """Positions of the restrictions of all of level n along a subset
        of [n], into level len(subset) - 1; cached per (n, subset).  The
        largest vertex missing from the subset is dropped first, and the
        rest is the cached restriction of level n - 1."""
        subset = tuple(sorted(set(subset)))
        if not subset or subset[0] < 0 or subset[-1] > n:
            raise InputError(f"bad subset {subset} of [0, {n}]")
        key = (n, subset)
        if key not in self._restrictions:
            missing = [v for v in range(n + 1) if v not in subset]
            if missing:
                v = missing[-1]
                below = self.restriction_table(n - 1, [u - (u > v) for u in subset])
                self._restrictions[key] = [below[p] for p in self.faces[n][v]]
            else:
                self._restrictions[key] = list(range(len(self.levels[n])))
        return self._restrictions[key]

    def restrict(self, n, subset, x):
        """Restrict an n-simplex along a subset of [n], largest drops first."""
        table = self.restriction_table(n, subset)
        return self.levels[len(set(subset)) - 1][table[self.position[n][x]]]

    def face_index(self, n, positions=None):
        """Positions in level n keyed by the positions of their faces d_i,
        i in `positions` (all by default); cached, lists in level order."""
        positions = tuple(range(n + 1)) if positions is None else tuple(positions)
        key = (n, positions)
        if key not in self._indexes:
            index = {}
            rows = [self.faces[n][i] for i in positions]
            keys = zip(*rows) if rows else [()] * len(self.levels[n])
            for p, face_key in enumerate(keys):
                index.setdefault(face_key, []).append(p)
            self._indexes[key] = index
        return self._indexes[key]

    def join(self, n, slots, budget, spent=0, keep=None):
        """Compatible face tuples over level n - 1, as positions, and the
        trials spent: tuples (y_i), i in `slots` (increasing, in [n]), with
        d_i y_j = d_{j-1} y_i for i < j (May, Simplicial Objects in
        Algebraic Topology, Def. 1.3).  Slots i != k give the maps of the
        (n, k)-horn, all of [n] those of the boundary.  y_j is looked up by
        the faces it shares with the entries chosen; `keep` filters complete
        tuples.  Each candidate tried is one trial, `spent` already used;
        past `budget` a CapacityError carries the tuples kept as partial.
        """
        slots = tuple(slots)
        last = len(slots) - 1
        indexes = [self.face_index(n - 1, slots[:s]) for s in range(len(slots))]
        # y_j's key: d_{j-1} of each entry already chosen (none for the first)
        rows = [None] + [self.faces[n - 1][j - 1].__getitem__ for j in slots[1:]]
        out = []
        chosen = []

        def extend(s):
            nonlocal spent
            for y in indexes[s].get(tuple(map(rows[s], chosen)), ()):
                spent += 1
                if spent > budget:
                    raise CapacityError(f"join exceeded budget {budget}", partial=len(out))
                if s < last:
                    chosen.append(y)
                    extend(s + 1)
                    chosen.pop()
                elif keep is None or keep((*chosen, y)):
                    out.append((*chosen, y))

        extend(0)
        return out, spent


class LevelModel(SimplicialObject):
    """A simplicial set presented by a levelwise simplicial object.

    `check` checks the identities on the model's tables.  An element is
    degenerate when it is s_i of its own d_i; the largest such i is the
    outermost letter of its normal form, read off the tables level by level.
    The other elements are the generators, named by `namer(n, x)`; a name
    given twice is an InputError.  `ref_of[(n, x)]` is the normal form of an
    element, `elem_of_gen` the element of a generator, and `sset` the
    SimplicialSet they present, whose level table is these tables, renumbered.
    """

    def __init__(self, dim_cap, levels, face, deg, namer, check=True):
        super().__init__(dim_cap, levels, face, deg, check=check)
        generators, faces, refs = {}, {}, []
        self.elem_of_gen, self.ref_of = {}, {}
        for n, level in enumerate(self.levels):
            # strip[p]: the largest i with element p = s_i d_i p, if any
            strip = [None] * len(level)
            for i in range(n):
                back = self.degs[n - 1][i]
                for p, q in enumerate(self.faces[n][i]):
                    if back[q] == p:
                        strip[p] = i
            below = refs[n - 1] if n else ()
            face_refs = list(zip(*([below[q] for q in d_i] for d_i in self.faces[n])))
            row = []
            for p, x in enumerate(level):
                i = strip[p]
                if i is not None:
                    base = face_refs[p][i]
                    row.append(SimplexRef(base.gen, (i,) + base.degs))
                    continue
                name = namer(n, x)
                if name in self.elem_of_gen:
                    m = next(m for m, names in generators.items() if name in names)
                    raise InputError(f"level namer collision at {name!r}: {self.elem_of_gen[name]!r}"
                                     f" at level {m} and {x!r} at level {n}")
                self.elem_of_gen[name] = x
                generators.setdefault(n, []).append(name)
                if n >= 1:
                    faces[name] = face_refs[p]
                row.append(SimplexRef(name))
            refs.append(row)
            self.ref_of.update(((n, x), ref) for x, ref in zip(level, row))
        # Tables that satisfy the identities present exactly the set their strip
        # reads off (Eilenberg-Zilber; Goerss-Jardine, Simplicial Homotopy Theory, I.1).
        self.sset = SimplicialSet(dim_cap, generators, faces, check=False)
        table = self.sset._level_table
        for n, row in enumerate(refs):
            at = {ref: p for p, ref in enumerate(row)}
            order = [at.get(t) for t in self.sset._normal_forms(n)]
            if None in order or len(order) != len(row):
                raise ConsistencyError(f"level {n} is not in bijection with its normal forms")
            new = sorted(range(len(order)), key=order.__getitem__)
            level = tuple(row[p] for p in order)
            if n:
                table.degs.append([[new[s_i[p]] for p in prev] for s_i in self.degs[n - 1]])
            table.faces.append([[old[d_i[p]] for p in order] for d_i in self.faces[n]] if n else ())
            table.levels.append(level)
            table.position.append({t: k for k, t in enumerate(level)})
            old, prev = new, order
        table.level_cap = dim_cap


# -- products -----------------------------------------------------------------


@dataclass
class ProductStructure:
    sset: SimplicialSet
    left: SimplicialSet
    right: SimplicialSet
    model: LevelModel = field(repr=False)

    def ref_of_pair(self, n, rx, ry):
        return self.model.ref_of[(n, (rx, ry))]

    def pair_of_gen(self, g):
        return self.model.elem_of_gen[g]


def product_structure(x, y, dim_cap=None):
    """Levelwise product with componentwise structure, plus pairing data."""
    cap = min(x.dim_cap, y.dim_cap)
    if dim_cap is not None:
        cap = min(cap, dim_cap)
    levels = [
        [(a, b) for a in x.simplices(n) for b in y.simplices(n)]
        for n in range(cap + 1)
    ]

    tx, ty = x.table(cap), y.table(cap)

    def face(n, i, p):
        return (tx.face(n, i, p[0]), ty.face(n, i, p[1]))

    def deg(n, i, p):
        return (tx.deg(n, i, p[0]), ty.deg(n, i, p[1]))

    model = LevelModel(cap, levels, face, deg, namer=lambda n, p: f"<{p[0]}|{p[1]}>")
    return ProductStructure(model.sset, x, y, model)


def product(x, y, dim_cap=None):
    return product_structure(x, y, dim_cap).sset
