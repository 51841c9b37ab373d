"""Finite truncated simplicial sets, exactly.

A simplicial set is stored by its non-degenerate simplices only.  Every
simplex has a unique normal form: a strictly decreasing degeneracy word
applied to a non-degenerate generator (Eilenberg-Zilber).  `SimplexRef`
names a simplex that way; `(g, (i1, ..., ik))` with `i1 > ... > ik` stands
for `s_{i1} s_{i2} ... s_{ik} g`.  Degenerate simplices are never stored,
they are enumerated on demand.

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

    @property
    def degenerate(self):
        return bool(self.degs)

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
            if not all(isinstance(j, int) and j >= 0 for j in degs):
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
        if not isinstance(dim_cap, int) or dim_cap < 0:
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
        self._simplices = {}
        self._face_index = {}
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

    def size(self):
        return sum(len(v) for v in self.gens.values())

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

        Factors alpha into codegeneracies and cofaces and applies the
        corresponding operators; the result is the alpha-reindexed simplex.
        """
        n = self.dim_of(ref)
        alpha = tuple(alpha)
        if not alpha:
            raise InputError("empty reindexing map")
        if any(a > b for a, b in zip(alpha, alpha[1:])) or alpha[0] < 0 or alpha[-1] > n:
            raise InputError(f"{alpha} is not monotone into [0, {n}]")
        a = list(alpha)
        s_stack = []
        while True:
            dup = next((i for i in range(len(a) - 1) if a[i] == a[i + 1]), None)
            if dup is None:
                break
            s_stack.append(dup)
            del a[dup + 1]
        cur = ref
        vals = a
        while len(vals) - 1 < self.dim_of(cur):
            present = set(vals)
            i = next(v for v in range(self.dim_of(cur) + 1) if v not in present)
            cur = self._face(cur, i)
            vals = [v - 1 if v > i else v for v in vals]
        for i in reversed(s_stack):
            cur = self.degeneracy(cur, i)
        return cur

    # -- enumeration ---------------------------------------------------------

    def simplices(self, n):
        """All n-simplices in normal form, non-degenerate generators first."""
        if not 0 <= n <= self.dim_cap:
            raise InputError(f"dimension {n} outside [0, {self.dim_cap}]")
        if n not in self._simplices:
            out = []
            for m in range(n, -1, -1):
                for g in self.gens.get(m, ()):
                    for word in decreasing_words(n - m, n):
                        out.append(SimplexRef(g, word))
            self._simplices[n] = tuple(out)
        return self._simplices[n]

    def count(self, n):
        return len(self.simplices(n))

    def face_tuple(self, ref):
        n = self.dim_of(ref)
        return tuple(self._face(ref, i) for i in range(n + 1))

    def face_index(self, n, positions=None):
        """Index of n-simplices by their faces d_i, i in `positions`.

        All faces by default (then n >= 1).  Cached per (n, positions);
        each key's list follows the order of `simplices(n)`.
        """
        positions = tuple(range(n + 1)) if positions is None else tuple(positions)
        key = (n, positions)
        if key not in self._face_index:
            idx = {}
            for t in self.simplices(n):
                idx.setdefault(tuple(self._face(t, i) for i in positions), []).append(t)
            self._face_index[key] = idx
        return self._face_index[key]

    def filler_index(self, n, k):
        """Index of n-simplices by their face tuple with d_k dropped."""
        return self.face_index(n, tuple(i for i in range(n + 1) if i != k))

    # -- validation ----------------------------------------------------------

    def validate(self, deep=False):
        # Each distinct face (d, ref) is checked once per call, and its own
        # face tuple derived once: generators share most of their faces.
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
            self._validate_deep()

    def _validate_deep(self):
        """Check the full identity suite on every represented simplex."""
        SimplicialObject(
            self.dim_cap,
            [self.simplices(n) for n in range(self.dim_cap + 1)],
            lambda n, i, t: self._face(t, i),
            lambda n, j, t: self.degeneracy(t, j),
        )


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
    with faces is checked, degeneracies then commute by normal form.
    """

    def __init__(self, src, tgt, assignment, up_to=None, check=True):
        self.src = src
        self.tgt = tgt
        self.up_to = src.dim_cap if up_to is None else up_to
        self.assignment = dict(assignment)
        if check:
            self.validate()

    def validate(self):
        for d in range(self.up_to + 1):
            for g in self.src.generators(d):
                if g not in self.assignment:
                    raise ValidationError(f"generator {g!r} has no image")
                img = self.assignment[g]
                if img.gen not in self.tgt.gen_dim:
                    raise ValidationError(f"image of {g!r} hits unknown {img.gen!r}")
                if self.tgt.dim_of(img) != d:
                    raise ValidationError(f"image of {g!r} has wrong dimension")
                if d >= 1:
                    for i in range(d + 1):
                        want = self.apply(self.src._face(SimplexRef(g), i))
                        got = self.tgt._face(img, i)
                        if want != got:
                            raise ValidationError(
                                f"map does not commute with d_{i} at {g!r}"
                            )

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


def enumerate_maps(src, tgt, dim_cap=None, budget=DEFAULT_BUDGET, fixed=None):
    """All simplicial maps src -> tgt on the <= dim_cap skeleton.

    Deterministic: the result list is sorted by the images of the source
    generators taken in (dimension, id) order.  Internally the search picks
    the next generator by fewest candidates; output order does not depend on
    that.  Raises CapacityError when more than `budget` candidate trials are
    spent.
    """
    cap = min(src.dim_cap, tgt.dim_cap)
    if dim_cap is not None:
        if dim_cap < 0:
            raise InputError(f"bad dim_cap {dim_cap}")
        cap = min(cap, dim_cap)
    order = [g for d in range(cap + 1) for g in src.generators(d)]
    assignment = {}
    if fixed:
        for g, ref in fixed.items():
            if g not in src.gen_dim or src.gen_dim[g] > cap:
                raise InputError(f"fixed generator {g!r} unknown or above cap")
            if tgt.dim_of(ref) != src.gen_dim[g]:
                raise InputError(f"fixed image for {g!r} has wrong dimension")
            assignment[g] = ref
    results = []
    nodes = 0
    vertex_candidates = tuple(tgt.simplices(0)) if cap >= 0 else ()
    src_faces = {g: src.face_tuple(SimplexRef(g)) for g in order if src.gen_dim[g] > 0}

    def candidates(g):
        d = src.gen_dim[g]
        if d == 0:
            return vertex_candidates
        key = tuple(assignment[f.gen] if not f.degs else _image_of(f)
                    for f in src_faces[g])
        return tuple(tgt.face_index(d).get(key, ()))

    def _image_of(ref):
        out = assignment[ref.gen]
        for j in reversed(ref.degs):
            out = tgt.degeneracy(out, j)
        return out

    def ready(g):
        if src.gen_dim[g] == 0:
            return True
        return all(f.gen in assignment for f in src_faces[g])

    def search():
        nonlocal nodes
        todo = [g for g in order if g not in assignment]
        if not todo:
            results.append(dict(assignment))
            return
        best = None
        best_cands = None
        for g in todo:
            if not ready(g):
                continue
            cands = candidates(g)
            if best is None or len(cands) < len(best_cands):
                best, best_cands = g, cands
                if not cands:
                    break
        if best is None:
            raise ConsistencyError("no ready generator; face data is inconsistent")
        for ref in sorted(best_cands):
            nodes += 1
            if nodes > budget:
                raise CapacityError(
                    f"map search exceeded budget {budget}", partial=len(results)
                )
            assignment[best] = ref
            search()
            del assignment[best]

    # fixed assignments must already satisfy face compatibility between them
    for g in list(assignment):
        d = src.gen_dim[g]
        if d >= 1 and ready(g) and assignment[g] not in candidates(g):
            return []
    search()
    maps = [SimplicialMap(src, tgt, a, up_to=cap, check=False) for a in results]
    maps.sort(key=lambda m: tuple(m.assignment[g] for g in order))
    return maps


def is_isomorphic(a, b, budget=DEFAULT_BUDGET):
    """A generator bijection commuting with faces, as a map, or None.

    Exhaustive at the common dimension cap, so None is a proof of
    non-isomorphism for truncated sets of equal cap.  A CapacityError
    carries the number of generators matched when the budget ran out as
    partial.
    """
    if a.dim_cap != b.dim_cap:
        return None
    dims = sorted(set(a.gens) | set(b.gens))
    for d in dims:
        if len(a.generators(d)) != len(b.generators(d)):
            return None
    phi = {}
    used = set()
    nodes = 0
    order = [g for d in dims for g in a.generators(d)]

    def images(g):
        d = a.gen_dim[g]
        if d == 0:
            return [h for h in b.generators(0) if h not in used]
        key = tuple(
            SimplexRef(phi[f.gen], f.degs) for f in a.face_tuple(SimplexRef(g))
        )
        return [t.gen for t in b.face_index(d).get(key, ()) if not t.degs and t.gen not in used]

    def search(i):
        nonlocal nodes
        if i == len(order):
            return True
        g = order[i]
        for h in sorted(images(g)):
            nodes += 1
            if nodes > budget:
                raise CapacityError(f"isomorphism search exceeded budget {budget}",
                                    partial=len(phi))
            phi[g] = h
            used.add(h)
            if search(i + 1):
                return True
            used.discard(h)
            del phi[g]
        return False

    if search(0):
        return SimplicialMap(a, b, {g: SimplexRef(h) for g, h in phi.items()})
    return None


# -- levelwise simplicial objects ----------------------------------------------


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
        self.level_cap = level_cap
        self.levels = [tuple(levels[n]) for n in range(level_cap + 1)]
        self.position = [{x: p for p, x in enumerate(level)} for level in self.levels]
        for n, level in enumerate(self.levels):
            if len(self.position[n]) != len(level):
                raise ValidationError(f"duplicate elements at level {n}")
        self.faces = [()] + [self._table(n, n - 1, face, "d") for n in range(1, level_cap + 1)]
        self.degs = [self._table(n, n + 1, deg, "s") for n in range(level_cap)]
        self._restrictions = {}
        if check:
            self.validate()

    def _table(self, n, m, op, kind):
        into = self.position[m]
        table = []
        for i in range(n + 1):
            row = []
            for x in self.levels[n]:
                q = into.get(op(n, i, x))
                if q is None:
                    raise ValidationError(f"{kind}_{i} of {x!r} leaves level {m}")
                row.append(q)
            table.append(row)
        return table

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

    def face(self, n, i, x):
        return self.levels[n - 1][self.faces[n][i][self.position[n][x]]]

    def deg(self, n, i, x):
        return self.levels[n + 1][self.degs[n][i][self.position[n][x]]]

    def restriction_table(self, n, subset):
        """Positions of the restrictions of all of level n along a subset
        of [n], into level len(subset) - 1; cached per (n, subset)."""
        subset = tuple(sorted(set(subset)))
        if not subset or subset[0] < 0 or subset[-1] > n:
            raise InputError(f"bad subset {subset} of [0, {n}]")
        key = (n, subset)
        if key not in self._restrictions:
            table, m = range(len(self.levels[n])), n
            for v in sorted(set(range(n + 1)) - set(subset), reverse=True):
                table = [self.faces[m][v][p] for p in table]
                m -= 1
            self._restrictions[key] = list(table)
        return self._restrictions[key]

    def restrict(self, n, subset, x):
        """Restrict an n-simplex along a subset of [n], largest drops first."""
        table = self.restriction_table(n, subset)
        return self.levels[len(set(subset)) - 1][table[self.position[n][x]]]


class LevelModel(SimplicialObject):
    """A simplicial set presented by a levelwise simplicial object.

    An element is degenerate when it is s_i of its own d_i; the largest
    such i is the outermost letter of its normal form (Eilenberg-Zilber),
    so normal forms are read off the tables one level at a time.  The
    non-degenerate elements are the generators, named by `namer(n, x)`.
    `ref_of[(n, x)]` is the normal form of a level element, `elem_of_gen`
    the element of a generator, and `sset` the SimplicialSet they present.
    """

    def __init__(self, dim_cap, levels, face, deg, namer, check=True):
        super().__init__(dim_cap, levels, face, deg, check=False)
        generators = {}
        faces = {}
        self.elem_of_gen = {}
        refs = []
        for n, level in enumerate(self.levels):
            row = []
            for p, x in enumerate(level):
                i = next(
                    (i for i in range(n - 1, -1, -1)
                     if self.degs[n - 1][i][self.faces[n][i][p]] == p),
                    None,
                )
                if i is not None:
                    base = refs[n - 1][self.faces[n][i][p]]
                    if base.degs and base.degs[0] >= i:
                        raise ConsistencyError("strip order broke normal form")
                    row.append(SimplexRef(base.gen, (i,) + base.degs))
                    continue
                name = namer(n, x)
                if name in self.elem_of_gen:
                    raise ValidationError(f"level namer collision at {name!r}")
                self.elem_of_gen[name] = x
                generators.setdefault(n, []).append(name)
                if n >= 1:
                    faces[name] = tuple(refs[n - 1][d_i[p]] for d_i in self.faces[n])
                row.append(SimplexRef(name))
            refs.append(row)
        self.ref_of = {
            (n, x): ref
            for n, level in enumerate(self.levels)
            for x, ref in zip(level, refs[n])
        }
        self.sset = SimplicialSet(dim_cap, generators, faces, check=check)
        if check:
            self._cross_check(refs)

    def _cross_check(self, refs):
        """Levelwise structure must agree with the normal-form calculus."""
        for n in range(1, self.level_cap + 1):
            for i, row in enumerate(self.faces[n]):
                for p, q in enumerate(row):
                    if refs[n - 1][q] != self.sset._face(refs[n][p], i):
                        raise ValidationError(
                            f"levelwise face disagrees with calculus at level {n}, d_{i}"
                        )
        for n in range(self.level_cap):
            for i, row in enumerate(self.degs[n]):
                for p, q in enumerate(row):
                    if refs[n + 1][q] != self.sset.degeneracy(refs[n][p], i):
                        raise ValidationError(
                            f"levelwise degeneracy disagrees with calculus at level {n}, s_{i}"
                        )


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

    def face(n, i, p):
        return (x._face(p[0], i), y._face(p[1], i))

    def deg(n, i, p):
        return (x.degeneracy(p[0], i), y.degeneracy(p[1], i))

    model = LevelModel(cap, levels, face, deg, namer=lambda n, p: f"<{p[0]}|{p[1]}>")
    return ProductStructure(model.sset, x, y, model)


def product(x, y, dim_cap=None):
    return product_structure(x, y, dim_cap).sset
