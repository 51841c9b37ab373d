"""Finite truncated simplicial sets, exactly.

A simplicial set is presented by its non-degenerate simplices and their
face lists.  Every simplex has a unique normal form: a strictly decreasing
degeneracy word applied to a non-degenerate generator (Eilenberg-Zilber).
`SimplexRef` names a simplex that way, in JSON and in reports:
`(g, (i1, ..., ik))` with `i1 > ... > ik` is `s_{i1} s_{i2} ... s_{ik} g`.
Internally each set keeps one integer level table, `SimplicialSet.table()`,
whose level n is `simplices(n)`: a `SimplicialObject`, built from rows of
positions (`faces[n][i][p]`, `degs[n][i][p]`), never from callables.  The
calculus below emits its rows once, a block of degeneracy words at a time,
or a `LevelModel` shares its own rows; everything else reads positions in
it.  A checked set builds the levels below its top generator dimension
while `validate` checks it on them, and keeps them.  Maps, isomorphisms
and (through nerves) functors are found by one search, `_map_search`,
that gives each source generator a target simplex by one face-index
lookup on those positions.

All sets are truncated at `dim_cap`.  Everything here is exact enumeration
over finite data; there is no tolerance parameter anywhere.

Operator identities used by the calculus (operators act on the left):

    d_i d_j = d_{j-1} d_i             (i < j)
    s_i s_j = s_{j+1} s_i             (i <= j)
    d_i s_j = s_{j-1} d_i             (i < j)
    d_j s_j = id = d_{j+1} s_j
    d_i s_j = s_j d_{i-1}             (i > j + 1)
"""

import functools
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Mapping
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
        return SimplexRef(*_json_pair(obj))


_INT = frozenset((int,))


def _json_pair(obj):
    """(gen, degs) of a JSON degenerate ref {"gen": id, "deg": word}, whose
    word must be strictly decreasing non-negative integers (no bools, no
    floats); an InputError for anything else."""
    if (
        isinstance(obj, dict) and obj.keys() == {"gen", "deg"}
        and isinstance(obj["gen"], str) and isinstance(obj["deg"], list)
    ):
        degs = tuple(obj["deg"])
        if not _INT.issuperset(map(type, degs)) or min(degs, default=0) < 0:
            raise InputError(f"bad degeneracy word {obj['deg']!r}")
        if any(map(operator.le, degs, degs[1:])):
            raise InputError(f"degeneracy word not strictly decreasing: {obj['deg']!r}")
        return obj["gen"], degs
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


def _face_of_word(degs, i):
    """d_i of s_degs g by the d_i s_j identities alone: (word, None) when
    d_i meets a degeneracy, which leaves s_word g, else (word, k) with
    d_i s_degs g = s_word d_k g."""
    pending = []
    for pos, j in enumerate(degs):
        if i < j:
            pending.append(j - 1)
        elif i == j or i == j + 1:
            return tuple(pending) + degs[pos + 1:], None
        else:
            pending.append(j)
            i -= 1
    return tuple(pending), i


@functools.lru_cache(maxsize=None)
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
        self._level_table = None
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
        word, k = _face_of_word(ref.degs, i)
        if k is None:
            return SimplexRef(ref.gen, word)
        out = self.gen_faces[ref.gen][k]
        for j in reversed(word):
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
        """len(simplices(n)), without building level n: the degeneracy words
        from dimension m up to n are the (n - m)-subsets of [n - 1]."""
        if not 0 <= n <= self.dim_cap:
            raise InputError(f"dimension {n} outside [0, {self.dim_cap}]")
        return sum(len(gens) * math.comb(n, m) for m, gens in self.gens.items() if m <= n)

    def table(self, through=None):
        """The one SimplicialObject whose level n is simplices(n), built
        level by level through `through` (dim_cap by default) on first
        need, its rows emitted by the calculus (`_rows`)."""
        top = self.dim_cap if through is None else through
        if not 0 <= top <= self.dim_cap:
            raise InputError(f"dimension {top} outside [0, {self.dim_cap}]")
        table = self._level_table
        if table is None:
            table = self._level_table = self._level_zero()
        while table.level_cap < top:
            n = table.level_cap + 1
            table.add_level(self._normal_forms(n), *self._rows(table, n, self._own_rows(table, n)))
        return table

    def _level_zero(self):
        return SimplicialObject(0, [self._normal_forms(0)], [()], (), check=False)

    def _own_rows(self, table, n):
        """The rows of d_i on the generators of dimension n: each face's
        position in level n - 1 of `table`, None where it names no
        (n - 1)-simplex."""
        at = table.position[n - 1]
        faces = [self.gen_faces[g] for g in self.gens.get(n, ())]
        return [[at.get(fs[i]) for fs in faces] for i in range(n + 1)]

    def _rows(self, table, n, own):
        """The face rows of level n and the degeneracy rows into it, from
        the calculus on degeneracy words; `own` is `_own_rows(table, n)`,
        the block of the generators of dimension n, which comes first.
        Level n is one block per dimension m <= n, generator by generator,
        word by word, and the calculus acts on a block's words alone: d_i
        of s_w g is s_w' g, at the same place of g's block one level down,
        or s_w' d_k g, read off the row of d_k at level m (whose generators
        come first) and the degeneracy rows; s_j of s_w g is s_w' g.  So
        each row is built one word at a time, for all generators of a
        dimension at once."""
        faces, degs = own, [[] for _ in range(n)]
        # where block m starts in levels n - 1 and n
        start_below, start = 0, len(self.gens.get(n, ()))
        for m in range(n - 1, -1, -1):
            gens = self.gens.get(m, ())
            words, lower = decreasing_words(n - m, n), decreasing_words(n - 1 - m, n - 1)
            # the place of word w in each generator's block, as a column
            spread = lambda first, width: range(first, first + len(gens) * width, width)
            for i, row in enumerate(faces):
                columns = []
                for w in words:
                    word, k = _face_of_word(w, i)
                    if k is None:
                        columns.append(spread(start_below + lower.index(word), len(lower)))
                        continue
                    column = table.faces[m][k][:len(gens)]
                    for d, j in enumerate(reversed(word)):
                        column = _then(column, table.degs[m - 1 + d][j])
                    columns.append(column)
                row.extend(itertools.chain.from_iterable(zip(*columns)))
            for j, row in enumerate(degs):
                columns = [spread(start + words.index(insert_degeneracy(w, j)), len(words))
                           for w in lower]
                row.extend(itertools.chain.from_iterable(zip(*columns)))
            start_below += len(gens) * len(lower)
            start += len(gens) * len(words)
        return faces, degs

    def _normal_forms(self, n):
        """Every normal form of dimension n, in `simplices(n)` order."""
        return tuple(SimplexRef(g, word) for m in range(n, -1, -1) for g in self.gens.get(m, ())
                     for word in decreasing_words(n - m, n))

    def filler_index(self, n, k):
        """`face_index` of level n of the table with d_k dropped."""
        return self.table(n).face_index(n, tuple(i for i in range(n + 1) if i != k))

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check the presentation, building its table on the way: levels 0
        through (top generator dimension - 1) afresh, never the cached
        table.  At level n the faces of the generators of dimension n are
        looked up as positions in level n - 1; a face that is none is no
        simplex of dimension n - 1 in normal form.  d_i d_j = d_{j-1} d_i
        is then tested on the generator block, both sides composed rows.
        The normal-form calculus forces every simplicial identity on every
        simplex from these (Eilenberg-Zilber), so this is the whole check;
        on success the table is kept.  Raises `ValidationError`, the first
        face-list failure in generator order, else the first identity
        failure."""
        for g in self.gens.get(0, ()):
            if g in self.gen_faces:
                raise ValidationError(f"vertex {g!r} must not carry faces")
        table, broken = self._level_zero(), None
        top = max(self.gens, default=0)
        for n in range(1, top + 1):
            gens = self.gens.get(n, ())
            own = None
            if all(len(self.gen_faces.get(g, ())) == n + 1 for g in gens):
                own = self._own_rows(table, n)
            if own is None or any(None in row for row in own):
                self._refuse_faces(table.position[n - 1], n)
            if broken is None and n >= 2:
                broken = self._broken_identity(table.faces[n - 1], n, own)
            if n < top:
                table.add_level(self._normal_forms(n), *self._rows(table, n, own))
        if broken is not None:
            raise ValidationError(broken)
        self._level_table = table

    def _refuse_faces(self, at, n):
        """Raise for the first generator of dimension n whose face list is
        missing, has the wrong length or names a face with no position in
        `at`, the positions of level n - 1."""
        for g in self.gens[n]:
            if g not in self.gen_faces:
                raise ValidationError(f"generator {g!r} has no face list")
            fs = self.gen_faces[g]
            if len(fs) != n + 1:
                raise ValidationError(f"{g!r} has {len(fs)} faces, expected {n + 1}")
            for i, ref in enumerate(fs):
                if ref in at:
                    continue
                if ref.gen not in self.gen_dim:
                    raise ValidationError(f"face d_{i} of {g!r} hits unknown {ref.gen!r}")
                if any(a <= b for a, b in zip(ref.degs, ref.degs[1:])):
                    raise ValidationError(f"face d_{i} of {g!r} not in normal form")
                if self.dim_of(ref) != n - 1:
                    raise ValidationError(
                        f"face d_{i} of {g!r} has dimension {self.dim_of(ref)}, expected {n - 1}"
                    )
                raise ValidationError(f"face d_{i} of {g!r} has out-of-range word")

    def _broken_identity(self, below, n, own):
        """The failure of d_i d_j = d_{j-1} d_i (i < j) on the first
        generator of dimension n that breaks it, or None: `own` holds the
        rows of their faces and `below` the face rows of level n - 1."""
        pairs = [(i, j) for j in range(n + 1) for i in range(j)]
        if all(_then(own[j], below[i]) == _then(own[i], below[j - 1]) for i, j in pairs):
            return None
        for p, g in enumerate(self.gens[n]):
            for i, j in pairs:
                if below[i][own[j][p]] != below[j - 1][own[i][p]]:
                    return f"d_{i} d_{j} != d_{j - 1} d_{i} on generator {g!r}"


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


def _then(first, second):
    """The row of positions `first` followed by the row `second`."""
    return list(map(second.__getitem__, first))


def _checked_rows(kind, n, level, rows, into):
    """The rows of d_i (kind "d", from level n into n - 1, none at level 0)
    or of s_i (kind "s", from level n into n + 1), as lists; a
    ValidationError names the level, the operator and the element of a bad
    row."""
    rows, want = [row if type(row) is list else list(row) for row in rows], n + 1
    if kind == "d" and not n:
        want = 0
    if len(rows) != want:
        raise ValidationError(f"level {n} has {len(rows)} {kind} rows, expected {want}")
    for i, row in enumerate(rows):
        if len(row) < len(level):
            raise ValidationError(f"{kind}_{i} has no entry for {level[len(row)]!r} at level {n}")
        if len(row) > len(level):
            raise ValidationError(
                f"{kind}_{i} has {len(row)} entries for the {len(level)} elements of level {n}"
            )
        if row and not (_INT.issuperset(map(type, row)) and min(row) >= 0 and max(row) < len(into)):
            p = next(p for p, q in enumerate(row) if type(q) is not int or not 0 <= q < len(into))
            into_level = n - 1 if kind == "d" else n + 1
            raise ValidationError(f"{kind}_{i} of {level[p]!r} leaves level {into_level}")
    return rows


def check_level_cap(level_cap):
    """A level cap is a non-negative integer; anything else is an InputError."""
    if type(level_cap) is not int or level_cap < 0:
        raise InputError(f"level_cap must be a non-negative integer, got {level_cap!r}")


class SimplicialObject:
    """A truncated simplicial object in finite sets, on integer tables.

    Level n is the sequence `levels[n]`, its elements numbered in the order
    given (`position[n][x]`).  The structure maps are rows of positions:
    `faces[n][i][p]` is the position in level n - 1 of d_i of element p of
    level n (level 0 has no rows), and `degs[n][i][p]` that of s_i in level
    n + 1, for n < level_cap.  Every row is checked for its length and for
    entries in range, and `check` checks the simplicial identities; rows
    given as lists are kept, not copied.  Everything else reads these tables.
    """

    def __init__(self, level_cap, levels, faces, degs, check=True):
        check_level_cap(level_cap)
        self.level_cap = -1
        self.levels, self.position, self.faces, self.degs = [], [], [], []
        self._restrictions, self._indexes = {}, {}
        for n in range(level_cap + 1):
            self.add_level(levels[n], faces[n], degs[n - 1] if n else ())
        if check:
            self.validate()

    def add_level(self, level, face_rows, deg_rows):
        """Append level level_cap + 1 with its face rows into the level
        below and the degeneracy rows from the level below into it; nothing
        is appended if a row fails its check."""
        n = self.level_cap + 1
        level = tuple(level)
        position = dict(zip(level, range(len(level))))
        if len(position) != len(level):
            raise ValidationError(f"duplicate elements at level {n}")
        faces = _checked_rows("d", n, level, face_rows, self.levels[n - 1] if n else ())
        degs = _checked_rows("s", n - 1, self.levels[n - 1], deg_rows, level) if n else ()
        if n:
            self.degs.append(degs)
        self.levels.append(level)
        self.position.append(position)
        self.faces.append(faces)
        self.level_cap = n

    def _renamed(self, levels):
        """A SimplicialObject whose level n is `levels[n]`, in the order of
        this one's, sharing its tables and caches."""
        other = SimplicialObject.__new__(SimplicialObject)
        other.level_cap, other.faces, other.degs = self.level_cap, self.faces, self.degs
        other._restrictions, other._indexes = self._restrictions, self._indexes
        other.levels = [tuple(level) for level in levels]
        # the same int objects as this object's positions
        other.position = [
            dict(zip(level, at.values())) for level, at in zip(other.levels, self.position)
        ]
        return other

    def _agree(self, n, got, want, identity):
        if got != want:
            p = next(p for p, (a, b) in enumerate(zip(got, want)) if a != b)
            raise ValidationError(
                f"{identity} fails at level {n} on {self.levels[n][p]!r}"
            )

    def validate(self):
        """The simplicial identities, checked on the tables: each side is a
        composite of two rows."""
        fs, ss = self.faces, self.degs
        for n in range(2, self.level_cap + 1):
            for j in range(n + 1):
                for i in range(j):
                    self._agree(
                        n,
                        _then(fs[n][j], fs[n - 1][i]),
                        _then(fs[n][i], fs[n - 1][j - 1]),
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
                        want = _then(fs[n][i], ss[n - 1][j - 1])
                        rule = f"d_{i} s_{j} = s_{j - 1} d_{i}"
                    else:
                        want = _then(fs[n][i - 1], ss[n - 1][j])
                        rule = f"d_{i} s_{j} = s_{j} d_{i - 1}"
                    self._agree(n, _then(sj, fs[n + 1][i]), want, rule)
            if n + 2 <= self.level_cap:
                for j in range(n + 1):
                    for i in range(j + 1):
                        self._agree(
                            n,
                            _then(ss[n][j], ss[n + 1][i]),
                            _then(ss[n][i], ss[n + 1][j + 1]),
                            f"s_{i} s_{j} = s_{j + 1} s_{i}",
                        )

    def restriction_table(self, n, subset):
        """Positions of the restrictions of all of level n along a subset
        of [n], into level len(subset) - 1; cached per (n, subset).  The
        largest vertex missing from the subset is dropped first, and the
        rest is the cached restriction of level n - 1."""
        subset = tuple(sorted(set(subset)))
        if not 0 <= n <= self.level_cap:
            raise InputError(f"level {n} outside [0, {self.level_cap}]")
        if not subset or subset[0] < 0 or subset[-1] > n:
            raise InputError(f"bad subset {subset} of [0, {n}]")
        key = (n, subset)
        if key not in self._restrictions:
            missing = [v for v in range(n + 1) if v not in subset]
            if missing:
                v = missing[-1]
                below = self.restriction_table(n - 1, [u - (u > v) for u in subset])
                self._restrictions[key] = _then(self.faces[n][v], below)
            else:
                self._restrictions[key] = list(range(len(self.levels[n])))
        return self._restrictions[key]

    def restrict(self, n, subset, x):
        """Restrict an n-simplex along a subset of [n], largest drops first."""
        table = self.restriction_table(n, subset)
        p = self.position[n].get(x)
        if p is None:
            raise InputError(f"{x!r} is not an element of level {n}")
        return self.levels[len(set(subset)) - 1][table[p]]

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


class _RefOf(Mapping):
    """The normal form of each element of a level model, keyed (n, x):
    the simplex at x's position in the set's level n."""

    def __init__(self, position, simplices):
        self._position, self._simplices = position, simplices

    def __getitem__(self, key):
        n, x = key
        p = self._position[n].get(x) if 0 <= n < len(self._position) else None
        if p is None:
            raise KeyError(key)
        return self._simplices[n][p]

    def __iter__(self):
        return ((n, x) for n, at in enumerate(self._position) for x in at)

    def __len__(self):
        return sum(map(len, self._position))


class LevelModel(SimplicialObject):
    """A simplicial set presented by a levelwise simplicial object.

    The levels and rows are given as to SimplicialObject, in any order, and
    `check` checks the identities on them.  An element is degenerate when it
    is s_i of its own d_i; the largest such i is the outermost letter of its
    normal form, read off the rows level by level.  The other elements are
    the generators, named by `namer(n, x)`; a name given twice is an
    InputError.  `sset` is the SimplicialSet they present.  Each level is
    then renumbered into `sset.simplices(n)` order, one permutation per
    level, and the set's level table shares the model's rows: element p of
    level n is the simplex `sset.simplices(n)[p]`.  `ref_of[(n, x)]` is the
    normal form of an element and `elem_of_gen` the element of a generator.
    """

    def __init__(self, dim_cap, levels, faces, degs, namer, check=True):
        super().__init__(dim_cap, levels, faces, degs, check=check)
        generators, gen_faces, refs = {}, {}, []
        self.elem_of_gen = {}
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
                    gen_faces[name] = face_refs[p]
                row.append(SimplexRef(name))
            refs.append(row)
        # Tables that satisfy the identities present exactly the set their strip
        # reads off (Eilenberg-Zilber; Goerss-Jardine, Simplicial Homotopy Theory, I.1).
        self.sset = SimplicialSet(dim_cap, generators, gen_faces, check=False)
        simplices = []
        for n, row in enumerate(refs):
            at = dict(zip(row, range(len(row))))
            level = self.sset._normal_forms(n)
            order = [at.get(t) for t in level]
            if None in order or len(order) != len(row):
                raise ConsistencyError(f"level {n} is not in bijection with its normal forms")
            # order[k]: the position given of the simplex k; new: its inverse
            ints = list(range(len(order)))
            new = sorted(ints, key=order.__getitem__)
            if n:
                self.degs[n - 1] = [[new[s_i[p]] for p in prev] for s_i in self.degs[n - 1]]
                self.faces[n] = [[old[d_i[p]] for p in order] for d_i in self.faces[n]]
            self.levels[n] = tuple(self.levels[n][p] for p in order)
            self.position[n] = dict(zip(self.levels[n], ints))
            simplices.append(level)
            old, prev = new, order
        self.sset._level_table = self._renamed(simplices)
        self.ref_of = _RefOf(self.position, self.sset._level_table.levels)


# -- products -----------------------------------------------------------------


@dataclass
class ProductStructure:
    sset: SimplicialSet
    left: SimplicialSet
    right: SimplicialSet
    model: LevelModel = field(repr=False)

    def pair_of_gen(self, g):
        return self.model.elem_of_gen[g]


def product_structure(x, y, dim_cap=None):
    """Levelwise product with componentwise structure, plus pairing data."""
    cap = min(x.dim_cap, y.dim_cap)
    if dim_cap is not None:
        cap = min(cap, dim_cap)
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
    model = LevelModel(cap, levels, faces, degs, namer=lambda n, p: f"<{p[0]}|{p[1]}>")
    return ProductStructure(model.sset, x, y, model)


def product(x, y, dim_cap=None):
    return product_structure(x, y, dim_cap).sset
