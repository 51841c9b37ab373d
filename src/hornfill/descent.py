"""Descent for set- and groupoid-valued presheaves on finite covers.

Two finite sites are supported.  The surjection site: a cover is a
surjection pi: E -> B together with an optional decomposition of E into
disjoint parts, and the relevant diagram is built from the fibre powers
E, E x_B E, E x_B E x_B E, ...  The opens site: a finite space presented
by its lattice of open sets, with covers given by families of opens.

A set-valued presheaf is a sheaf for a cover when

    (i)  its value on E is the product of its values on the parts, and
    (ii) F(B) -> eq( F(E) => F(E x_B E) ) is a bijection.

A groupoid-valued presheaf is a stack when (i) holds up to equivalence
and the comparison functor from F(B) to the groupoid of descent data
(an object over E plus a gluing morphism over E x_B E satisfying the
cocycle and normalization conditions) is an equivalence.

Presheaves are function-backed and values on large fibre powers are
never enumerated: checks only ever materialize single elements there.
For the presheaf of G-valued cochains the descent groupoid is handled
in a parametrized skeletal form (cocycles per fiber, orbit search under
coboundaries, stabilizers by direct enumeration), which keeps covers
with |E| around five and |G| around six exact and fast.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_BUDGET
from .errors import CapacityError, ConsistencyError, InputError
from .groupoid import FiniteGroupoid


# ---------------------------------------------------------------------------
# covers over the surjection site


@dataclass(frozen=True)
class Cover:
    """A surjection pi: E -> B, optionally split into disjoint parts."""

    e: tuple
    b: tuple
    pi: dict
    parts: tuple = None

    def __post_init__(self):
        if len(set(self.e)) != len(self.e) or len(set(self.b)) != len(self.b):
            raise InputError("cover carriers must not repeat elements")
        if set(self.pi) != set(self.e):
            raise InputError("pi must be defined on exactly E")
        missing = set(self.pi.values()) - set(self.b)
        if missing:
            raise InputError(f"pi lands outside B: {sorted(missing)}")
        uncovered = set(self.b) - set(self.pi.values())
        if uncovered:
            raise InputError(f"pi is not surjective: {sorted(uncovered)} uncovered")
        if self.parts is not None:
            seen = []
            for part in self.parts:
                seen.extend(part)
            if sorted(seen) != sorted(self.e) or len(seen) != len(set(seen)):
                raise InputError("parts must partition E")

    def fibers(self):
        out = {v: [] for v in self.b}
        for x in self.e:
            out[self.pi[x]].append(x)
        return {v: tuple(xs) for v, xs in out.items()}

    def power(self, n):
        """The n-fold fibre power of E over B; elements are bare for n=1."""
        if n < 1:
            raise InputError("fibre powers start at 1")
        if n == 1:
            return self.e
        out = []
        for xs in self.fibers().values():
            out.extend(itertools.product(xs, repeat=n))
        return tuple(sorted(out))

    def coface(self, n, i):
        """Site map E^(n+1) -> E^n omitting coordinate i, as (alpha, cod)."""
        if not 0 <= i <= n:
            raise InputError(f"coface index {i} out of range for level {n}")
        cod = self.power(n)
        alpha = {}
        for t in self.power(n + 1):
            img = t[:i] + t[i + 1:]
            alpha[t] = img[0] if n == 1 else img
        return alpha, cod

    def diagonal(self):
        """Site map E -> E x_B E, as (alpha, cod)."""
        return {x: (x, x) for x in self.e}, self.power(2)

    def projection(self, n, coords):
        """Site map E^n -> E^len(coords) selecting the given coordinates."""
        cod_n = len(coords)
        cod = self.power(cod_n)
        alpha = {}
        for t in self.power(n):
            img = tuple(t[c] for c in coords)
            alpha[t] = img[0] if cod_n == 1 else img
        return alpha, cod

    def anchor(self):
        """Site map E -> B."""
        return dict(self.pi), self.b

    def to_json(self):
        data = {
            "E": list(self.e),
            "B": list(self.b),
            "pi": {x: self.pi[x] for x in self.e},
        }
        if self.parts is not None:
            data["parts"] = [list(p) for p in self.parts]
        return data

    @staticmethod
    def from_json(data):
        parts = data.get("parts")
        return Cover(
            tuple(data["E"]),
            tuple(data["B"]),
            dict(data["pi"]),
            None if parts is None else tuple(tuple(p) for p in parts),
        )


# ---------------------------------------------------------------------------
# set-valued presheaves on the surjection site


class SetPresheaf:
    """Function-backed presheaf of finite sets.

    value(obj) lists the elements at an object (a tuple of points; only
    small objects are ever passed).  restrict(alpha, cod, elem) applies
    the restriction along the site map alpha: dom -> cod to one element.
    """

    def value(self, obj):
        raise NotImplementedError

    def restrict(self, alpha, cod, elem):
        raise NotImplementedError


class MapPresheaf(SetPresheaf):
    """Sections of the projection: F(S) = all functions S -> values."""

    def __init__(self, values):
        self.values = tuple(values)

    def value(self, obj):
        out = []
        for vs in itertools.product(self.values, repeat=len(obj)):
            out.append(tuple(sorted(zip(obj, vs))))
        return tuple(out)

    def restrict(self, alpha, cod, elem):
        table = dict(elem)
        return tuple(sorted((s, table[t]) for s, t in alpha.items()))


class ConstantPresheaf(SetPresheaf):
    """F(S) = the same finite set everywhere, restrictions identities.

    Not a sheaf in general: gluing along a cover with several parts
    would need a product of copies.
    """

    def __init__(self, values):
        self.values = tuple(values)

    def value(self, obj):
        return self.values

    def restrict(self, alpha, cod, elem):
        return elem


class DoubledGlobalPresheaf(SetPresheaf):
    """Functions everywhere, but F(B) = values x values, forgetting the
    second coordinate on restriction.  Passes the parts condition and
    fails the equalizer condition: the comparison map is not injective.
    """

    def __init__(self, values, b):
        self.values = tuple(values)
        self.b = tuple(b)

    def value(self, obj):
        if tuple(obj) == self.b:
            return tuple(itertools.product(self.values, repeat=2))
        out = []
        for vs in itertools.product(self.values, repeat=len(obj)):
            out.append(tuple(sorted(zip(obj, vs))))
        return tuple(out)

    def restrict(self, alpha, cod, elem):
        if tuple(cod) == self.b:
            return tuple(sorted((s, elem[0]) for s in alpha))
        table = dict(elem)
        return tuple(sorted((s, table[t]) for s, t in alpha.items()))


@dataclass
class SheafReport:
    products_ok: bool
    equalizer_injective: bool
    equalizer_surjective: bool
    is_sheaf: bool
    global_count: int
    equalizer_count: int
    witness: str

    @property
    def equalizer_ok(self):
        return self.equalizer_injective and self.equalizer_surjective

    def to_json(self):
        return {
            "products_ok": self.products_ok,
            "equalizer_injective": self.equalizer_injective,
            "equalizer_surjective": self.equalizer_surjective,
            "is_sheaf": self.is_sheaf,
            "global_count": self.global_count,
            "equalizer_count": self.equalizer_count,
            "witness": self.witness or None,
        }


def check_sheaf_sets(presheaf, cover):
    """Both sheaf conditions for a set-valued presheaf on a cover."""
    e = cover.e
    fe = presheaf.value(e)
    witness = ""

    parts = cover.parts if cover.parts is not None else (e,)
    part_values = [presheaf.value(p) for p in parts]
    seen = {}
    products_ok = True
    for a in fe:
        key = tuple(
            presheaf.restrict({u: u for u in p}, e, a) for p in parts
        )
        if key in seen:
            products_ok = False
            if not witness:
                witness = f"parts: {seen[key]} and {a} agree on every part"
        seen[key] = a
    expected = 1
    for vs in part_values:
        expected *= len(vs)
    if len(seen) != expected:
        products_ok = False
        if not witness:
            witness = (
                f"parts: {len(seen)} of {expected} part-families are glued"
            )

    pr1, cod1 = cover.projection(2, (0,))
    pr2, _ = cover.projection(2, (1,))
    eq = [
        a
        for a in fe
        if presheaf.restrict(pr1, cod1, a) == presheaf.restrict(pr2, cod1, a)
    ]
    alpha, b = cover.anchor()
    fb = presheaf.value(b)
    images = [presheaf.restrict(alpha, b, s) for s in fb]
    injective = len(set(images)) == len(fb)
    if not injective and not witness:
        collide = {}
        for s, img in zip(fb, images):
            if img in collide:
                witness = f"equalizer: {collide[img]} and {s} restrict equally"
                break
            collide[img] = s
    surjective = set(images) == set(eq)
    if not surjective and not witness:
        stray = set(images) - set(eq)
        if stray:
            witness = f"equalizer: image element {sorted(stray)[0]} not matching"
        else:
            unhit = sorted(set(eq) - set(images))[0]
            witness = f"equalizer: matching family {unhit} is not glued"

    return SheafReport(
        products_ok=products_ok,
        equalizer_injective=injective,
        equalizer_surjective=surjective,
        is_sheaf=products_ok and injective and surjective,
        global_count=len(fb),
        equalizer_count=len(eq),
        witness=witness,
    )


@dataclass
class TruncationReport:
    sizes: dict
    agree: bool

    def to_json(self):
        return {"sizes": {str(k): v for k, v in self.sizes.items()}, "agree": self.agree}


def truncation_agreement_sets(presheaf, cover, depth=3):
    """Compare the descent limit computed over deeper and deeper truncations.

    A compatible family over the fibre-power diagram is pinned down by its
    component at E, so the limit over levels <= N is the set of elements of
    F(E) on which all point projections from each fibre power up to E^(N+1)
    agree.  Levels beyond the first are redundant for set-valued presheaves;
    this makes that concrete instead of assuming it.
    """
    if depth < 2:
        raise InputError("truncation comparison starts at depth 2")
    e = cover.e
    fe = presheaf.value(e)
    sizes = {}
    survivors = list(fe)
    for level in range(1, depth + 1):
        n = level + 1
        projections = [cover.projection(n, (v,)) for v in range(n)]
        kept = []
        for a in survivors:
            imgs = {
                presheaf.restrict(alpha, cod, a) for alpha, cod in projections
            }
            if len(imgs) == 1:
                kept.append(a)
        survivors = kept
        sizes[level] = len(survivors)
    agree = len(set(sizes.values())) == 1
    return TruncationReport(sizes, agree)


# ---------------------------------------------------------------------------
# opens site


@dataclass(frozen=True)
class FiniteSpace:
    """A finite set of points with a named family of opens.

    The family must contain the empty set and the whole space and be
    closed under pairwise intersection (as sets; names are labels).
    """

    points: tuple
    opens: dict  # name -> frozenset of points

    def __post_init__(self):
        pts = set(self.points)
        sets = {}
        for name, s in self.opens.items():
            if not isinstance(s, frozenset):
                raise InputError(f"open {name} must be a frozenset")
            if not s <= pts:
                raise InputError(f"open {name} leaves the point set")
            sets[s] = name
        if frozenset() not in sets or frozenset(pts) not in sets:
            raise InputError("opens must include the empty set and the space")
        for s in sets:
            for t in sets:
                if s & t not in sets:
                    raise InputError(
                        f"opens are not intersection-closed: {sorted(s)} and {sorted(t)}"
                    )
        object.__setattr__(self, "_by_set", sets)

    def name_of(self, s):
        return self._by_set[frozenset(s)]

    def intersection(self, name1, name2):
        return self.name_of(self.opens[name1] & self.opens[name2])


class OpensPresheaf:
    """Presheaf on the opens of a finite space, keyed by open names."""

    def value(self, space, name):
        raise NotImplementedError

    def restrict(self, space, sup, sub, elem):
        raise NotImplementedError


class OpensMapPresheaf(OpensPresheaf):
    def __init__(self, values):
        self.values = tuple(values)

    def value(self, space, name):
        pts = sorted(space.opens[name])
        out = []
        for vs in itertools.product(self.values, repeat=len(pts)):
            out.append(tuple(sorted(zip(pts, vs))))
        return tuple(out)

    def restrict(self, space, sup, sub, elem):
        table = dict(elem)
        return tuple(sorted((p, table[p]) for p in space.opens[sub]))


class OpensConstantPresheaf(OpensPresheaf):
    def __init__(self, values):
        self.values = tuple(values)

    def value(self, space, name):
        return self.values

    def restrict(self, space, sup, sub, elem):
        return elem


def check_sheaf_opens(presheaf, space, target, part_names, budget=DEFAULT_BUDGET):
    """Classical family equalizer on an open cover of a finite space.

    Matching families over the parts (agreeing on pairwise intersections)
    must biject with F(target) under restriction.  An empty cover of the
    empty open forces F(empty) to be a single point.
    """
    u = space.opens[target]
    covered = frozenset().union(*[space.opens[p] for p in part_names]) if part_names else frozenset()
    if covered != u:
        raise InputError(f"parts do not cover {target}")
    part_values = [presheaf.value(space, p) for p in part_names]
    total = 1
    for vs in part_values:
        total *= len(vs)
    if total > budget:
        raise CapacityError(f"{total} candidate families exceed budget {budget}")
    inters = {}
    for i, p in enumerate(part_names):
        for j in range(i + 1, len(part_names)):
            inters[(i, j)] = space.intersection(p, part_names[j])
    families = []
    for combo in itertools.product(*part_values):
        ok = True
        for (i, j), w in inters.items():
            left = presheaf.restrict(space, part_names[i], w, combo[i])
            right = presheaf.restrict(space, part_names[j], w, combo[j])
            if left != right:
                ok = False
                break
        if ok:
            families.append(combo)
    fu = presheaf.value(space, target)
    images = [
        tuple(presheaf.restrict(space, target, p, s) for p in part_names)
        for s in fu
    ]
    injective = len(set(images)) == len(fu)
    surjective = set(images) == set(map(tuple, families))
    return SheafReport(
        products_ok=True,
        equalizer_injective=injective,
        equalizer_surjective=surjective,
        is_sheaf=injective and surjective,
        global_count=len(fu),
        equalizer_count=len(families),
        witness="" if injective and surjective else "matching families differ from sections",
    )


# ---------------------------------------------------------------------------
# groupoid-valued presheaves


class GroupoidPresheaf:
    """Function-backed presheaf of finite groupoids on the surjection site.

    Values are described by objects/homs/compose/identity; restrictions act
    on single objects and morphisms.  Everything is strict: restriction
    along a composite equals the composite of restrictions on the nose.
    Implementations must keep homs() callable on the sets they will be
    asked about; checks never enumerate hom sets over fibre powers past E.
    """

    def objects(self, s):
        raise NotImplementedError

    def homs(self, s, a, b):
        raise NotImplementedError

    def compose(self, s, g2, g1):
        raise NotImplementedError

    def identity(self, s, a):
        raise NotImplementedError

    def restrict_obj(self, alpha, cod, a):
        raise NotImplementedError

    def restrict_mor(self, alpha, cod, m):
        raise NotImplementedError


class TorsorPresheaf(GroupoidPresheaf):
    """One object everywhere; morphisms at S are G-valued functions on S.

    This is the presheaf whose descent data along a cover are exactly the
    G-valued cocycles, with coboundaries as morphisms.
    """

    def __init__(self, group):
        self.group = group

    def objects(self, s):
        return ("*",)

    def homs(self, s, a, b):
        out = []
        keys = tuple(s)
        for vs in itertools.product(self.group.elements, repeat=len(keys)):
            out.append(tuple(sorted(zip(keys, vs))))
        return tuple(out)

    def compose(self, s, g2, g1):
        d2, d1 = dict(g2), dict(g1)
        return tuple(sorted((x, self.group.mul[(d2[x], d1[x])]) for x in d1))

    def identity(self, s, a):
        e = self.group.identity()
        return tuple(sorted((x, e) for x in s))

    def restrict_obj(self, alpha, cod, a):
        return "*"

    def restrict_mor(self, alpha, cod, m):
        table = dict(m)
        return tuple(sorted((x, table[y]) for x, y in alpha.items()))


class ConstantBGPresheaf(GroupoidPresheaf):
    """The constant presheaf at the one-object groupoid of G.

    Restriction maps are identities, so the value on a disjoint union is
    one copy of BG instead of a product of copies: the parts condition
    fails on any cover with at least two parts (unless G is trivial).
    """

    def __init__(self, group):
        self.group = group

    def objects(self, s):
        return ("*",)

    def homs(self, s, a, b):
        return tuple(self.group.elements)

    def compose(self, s, g2, g1):
        return self.group.mul[(g2, g1)]

    def identity(self, s, a):
        return self.group.identity()

    def restrict_obj(self, alpha, cod, a):
        return "*"

    def restrict_mor(self, alpha, cod, m):
        return m


class DoubledBGPresheaf(GroupoidPresheaf):
    """BG everywhere except B(G x G) on the base, forgetting one factor.

    Satisfies the parts condition when the cover is not split, but the
    comparison to descent data is not faithful: both base factors restrict
    to the same cocycle.
    """

    def __init__(self, group, b):
        self.group = group
        self.b = tuple(b)

    def _is_base(self, s):
        return tuple(s) == self.b

    def objects(self, s):
        return ("*",)

    def homs(self, s, a, b):
        if self._is_base(s):
            return tuple(itertools.product(self.group.elements, repeat=2))
        return tuple(self.group.elements)

    def compose(self, s, g2, g1):
        if self._is_base(s):
            return (
                self.group.mul[(g2[0], g1[0])],
                self.group.mul[(g2[1], g1[1])],
            )
        return self.group.mul[(g2, g1)]

    def identity(self, s, a):
        e = self.group.identity()
        return (e, e) if self._is_base(s) else e

    def restrict_obj(self, alpha, cod, a):
        return "*"

    def restrict_mor(self, alpha, cod, m):
        return m[0] if tuple(cod) == self.b else m


def torsor_presheaf(group):
    return TorsorPresheaf(group)


def constant_bg_presheaf(group):
    return ConstantBGPresheaf(group)


# ---------------------------------------------------------------------------
# generic descent groupoid (materialized; for small instances)


@dataclass
class DescentResult:
    groupoid: FiniteGroupoid
    object_data: list  # (a, phi) per object name "z{i}"
    morphism_data: dict  # name -> (i, j, h)

    def object_name(self, i):
        return f"z{i}"


def _descent_objects(presheaf, cover, depth, budget):
    e = cover.e
    e2 = cover.power(2)
    d0_1, cod0_1 = cover.coface(1, 0)
    d1_1, cod1_1 = cover.coface(1, 1)
    diag, cod_diag = cover.diagonal()
    cofaces_2 = [cover.coface(2, i) for i in range(3)]
    out = []
    steps = 0
    for a in presheaf.objects(e):
        a_src = presheaf.restrict_obj(d1_1, cod1_1, a)
        a_tgt = presheaf.restrict_obj(d0_1, cod0_1, a)
        for phi in presheaf.homs(e2, a_src, a_tgt):
            steps += 1
            if steps > budget:
                raise CapacityError(
                    f"descent object search passed {budget} candidates"
                )
            if presheaf.restrict_mor(diag, cod_diag, phi) != presheaf.identity(e, a):
                continue
            (al0, c0), (al1, c1), (al2, c2) = cofaces_2
            lhs = presheaf.restrict_mor(al1, c1, phi)
            rhs = presheaf.compose(
                cover.power(3),
                presheaf.restrict_mor(al0, c0, phi),
                presheaf.restrict_mor(al2, c2, phi),
            )
            if lhs != rhs:
                continue
            if depth >= 3 and not _quadruple_conditions(presheaf, cover, phi):
                continue
            out.append((a, phi))
    return out


def _quadruple_conditions(presheaf, cover, phi):
    """All parallel composites of the gluing morphism over E^4 agree."""
    e4 = cover.power(4)
    if not e4:
        return True
    pulled = {}
    for p in range(4):
        for q in range(p + 1, 4):
            alpha, cod = cover.projection(4, (p, q))
            pulled[(p, q)] = presheaf.restrict_mor(alpha, cod, phi)
    comp = lambda g2, g1: presheaf.compose(e4, g2, g1)
    direct = pulled[(0, 3)]
    routes = [
        comp(pulled[(1, 3)], pulled[(0, 1)]),
        comp(pulled[(2, 3)], pulled[(0, 2)]),
        comp(pulled[(2, 3)], comp(pulled[(1, 2)], pulled[(0, 1)])),
    ]
    return all(r == direct for r in routes)


def descent_groupoid(presheaf, cover, depth=2, budget=DEFAULT_BUDGET):
    """Materialize the groupoid of descent data for a cover.

    Objects are pairs (a, phi): an object of F(E) with a gluing morphism
    over E x_B E satisfying normalization and the cocycle condition (and,
    at depth 3, the redundant quadruple conditions).  Morphisms are the
    morphisms of F(E) commuting with the gluings.  Everything is listed
    explicitly, so this is for small presheaves; the cochain presheaf at
    scale goes through cech_descent_skeleton instead.
    """
    if depth not in (2, 3):
        raise InputError("descent depth must be 2 or 3")
    e = cover.e
    objects = _descent_objects(presheaf, cover, depth, budget)
    d0_1, cod0_1 = cover.coface(1, 0)
    d1_1, cod1_1 = cover.coface(1, 1)
    e2 = cover.power(2)
    names = [f"z{i}" for i in range(len(objects))]
    morphisms = {}
    morphism_data = {}
    lookup = {}
    steps = 0
    for i, (a, phi) in enumerate(objects):
        for j, (a2, phi2) in enumerate(objects):
            for h in presheaf.homs(e, a, a2):
                steps += 1
                if steps > budget:
                    raise CapacityError(
                        f"descent morphism search passed {budget} candidates"
                    )
                left = presheaf.compose(
                    e2, presheaf.restrict_mor(d0_1, cod0_1, h), phi
                )
                right = presheaf.compose(
                    e2, phi2, presheaf.restrict_mor(d1_1, cod1_1, h)
                )
                if left != right:
                    continue
                name = f"h{len(morphisms)}"
                morphisms[name] = (names[i], names[j])
                morphism_data[name] = (i, j, h)
                lookup[(i, j, h)] = name
    identity = {}
    for i, (a, phi) in enumerate(objects):
        key = (i, i, presheaf.identity(e, a))
        if key not in lookup:
            raise ConsistencyError(f"identity of {names[i]} is not a descent morphism")
        identity[names[i]] = lookup[key]
    compose = {}
    for n2, (j2, k, h2) in morphism_data.items():
        for n1, (i, j1, h1) in morphism_data.items():
            if j1 != j2:
                continue
            key = (i, k, presheaf.compose(e, h2, h1))
            if key not in lookup:
                raise ConsistencyError("descent morphisms are not closed under composition")
            compose[(n2, n1)] = lookup[key]
    gpd = FiniteGroupoid(tuple(names), morphisms, identity, compose)
    return DescentResult(gpd, objects, morphism_data)


@dataclass
class StackReport:
    products_ok: bool
    essentially_surjective: bool
    fully_faithful: bool
    is_stack: bool
    base_objects: int
    descent_objects: int
    descent_components: int
    witness: str

    @property
    def descent_ok(self):
        return self.essentially_surjective and self.fully_faithful

    def to_json(self):
        return {
            "products_ok": self.products_ok,
            "essentially_surjective": self.essentially_surjective,
            "fully_faithful": self.fully_faithful,
            "descent_ok": self.descent_ok,
            "is_stack": self.is_stack,
            "base_objects": self.base_objects,
            "descent_objects": self.descent_objects,
            "descent_components": self.descent_components,
            "witness": self.witness or None,
        }


def _products_condition(presheaf, cover, budget):
    """Is F(E) -> prod over parts an equivalence (for groupoid values)?"""
    e = cover.e
    parts = cover.parts if cover.parts is not None else (e,)
    incls = [({u: u for u in p}, e) for p in parts]
    objs_e = presheaf.objects(e)
    part_objs = [presheaf.objects(p) for p in parts]

    def component_key(s, objs, a):
        # component of a via reachability through nonempty hom sets
        reach = {a}
        frontier = [a]
        while frontier:
            x = frontier.pop()
            for y in objs:
                if y in reach:
                    continue
                if presheaf.homs(s, x, y) or presheaf.homs(s, y, x):
                    reach.add(y)
                    frontier.append(y)
        return frozenset(reach)

    total = 1
    for objs in part_objs:
        total *= len(objs)
    if total > budget or len(objs_e) * max(len(p) + 1 for p in part_objs) > budget:
        raise CapacityError("parts condition would materialize too many objects")

    part_components = []
    for p, objs in zip(parts, part_objs):
        comp = {}
        for a in objs:
            comp[a] = component_key(p, objs, a)
        part_components.append(comp)
    image_keys = set()
    for a in objs_e:
        img = tuple(
            presheaf.restrict_obj(alpha, cod, a) for alpha, cod in incls
        )
        image_keys.add(tuple(comp[x] for comp, x in zip(part_components, img)))
    all_keys = set(
        itertools.product(*[
            sorted({frozenset(v) for v in comp.values()}, key=sorted)
            for comp in part_components
        ])
    )
    ess = image_keys == all_keys
    ff = True
    witness = ""
    for a in objs_e:
        for b in objs_e:
            homs_e = presheaf.homs(e, a, b)
            imgs = []
            for h in homs_e:
                imgs.append(tuple(
                    presheaf.restrict_mor(alpha, cod, h) for alpha, cod in incls
                ))
            if len(set(imgs)) != len(homs_e):
                ff = False
                witness = "parts: two morphisms over E agree on every part"
                break
            ra = [presheaf.restrict_obj(alpha, cod, a) for alpha, cod in incls]
            rb = [presheaf.restrict_obj(alpha, cod, b) for alpha, cod in incls]
            expected = 1
            for p, xa, xb in zip(parts, ra, rb):
                expected *= len(presheaf.homs(p, xa, xb))
            if len(set(imgs)) != expected:
                ff = False
                witness = (
                    f"parts: {len(set(imgs))} of {expected} part-morphism"
                    " families are assembled"
                )
                break
        if not ff:
            break
    if not ess and not witness:
        witness = "parts: some family of part objects is missed up to isomorphism"
    return ess and ff, witness


def check_stack_groupoids(presheaf, cover, depth=2, budget=DEFAULT_BUDGET):
    """Stack conditions for a groupoid-valued presheaf, by materialization.

    Condition (i): restriction to the parts is an equivalence onto the
    product.  Condition (ii): the comparison functor F(B) -> Desc(cover)
    is essentially surjective and fully faithful.  Suitable for small
    values only; everything is enumerated.
    """
    products_ok, witness = _products_condition(presheaf, cover, budget)
    desc = descent_groupoid(presheaf, cover, depth=depth, budget=budget)
    e = cover.e
    e2 = cover.power(2)
    anchor, b = cover.anchor()
    anchor2 = {t: cover.pi[t[0]] for t in e2}
    base_objs = presheaf.objects(b)
    obj_index = {pair: i for i, pair in enumerate(desc.object_data)}
    images = []
    for s in base_objs:
        a = presheaf.restrict_obj(anchor, b, s)
        a2 = presheaf.restrict_obj(anchor2, b, s)
        phi = presheaf.identity(e2, a2)
        if (a, phi) not in obj_index:
            raise ConsistencyError(
                "canonical image of a base object is not descent data;"
                " the presheaf is not strictly functorial"
            )
        images.append(obj_index[(a, phi)])
    components = desc.groupoid.components()
    comp_of = {}
    for ci, comp in enumerate(components.values()):
        for name in comp:
            comp_of[name] = ci
    hit = {comp_of[desc.object_name(i)] for i in images}
    ess = len(hit) == len(components)
    if not ess and not witness:
        witness = "descent: some descent datum is not glued from the base"
    ff = True
    for si, s in enumerate(base_objs):
        for ti, t in enumerate(base_objs):
            base_homs = presheaf.homs(b, s, t)
            imgs = set()
            for h in base_homs:
                imgs.add(presheaf.restrict_mor(anchor, b, h))
            target = {
                hh
                for (i, j, hh) in desc.morphism_data.values()
                if i == images[si] and j == images[ti]
            }
            if len(imgs) != len(base_homs) or imgs != target:
                ff = False
                if not witness:
                    witness = "descent: comparison is not bijective on morphisms"
                break
        if not ff:
            break
    return StackReport(
        products_ok=products_ok,
        essentially_surjective=ess,
        fully_faithful=ff,
        is_stack=products_ok and ess and ff,
        base_objects=len(base_objs),
        descent_objects=len(desc.object_data),
        descent_components=len(components),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# cochain descent in skeletal form


def _same_fiber_pairs(cover):
    pairs = []
    for xs in cover.fibers().values():
        for x in xs:
            for y in xs:
                pairs.append((x, y))
    return tuple(sorted(pairs))


def cech_cocycles(group, cover, budget=DEFAULT_BUDGET):
    """All G-valued cocycles on a cover, as tuples over same-fiber pairs.

    A cocycle assigns g[x,y] to each same-fiber pair with g[y,z] g[x,y]
    = g[x,z]; it is determined by its values against a root per fiber.
    Every reconstruction is re-verified against the defining equations.
    """
    pairs = _same_fiber_pairs(cover)
    pos = {p: i for i, p in enumerate(pairs)}
    fibers = [xs for xs in cover.fibers().values() if xs]
    e = group.identity()
    count = 1
    for xs in fibers:
        count *= group.order() ** (len(xs) - 1)
    if count > budget:
        raise CapacityError(f"{count} cocycles exceed budget {budget}")
    per_fiber = []
    for xs in fibers:
        root = xs[0]
        rest = xs[1:]
        choices = []
        for vals in itertools.product(group.elements, repeat=len(rest)):
            to_root = {root: e}
            to_root.update(zip(rest, vals))
            local = {}
            for x in xs:
                for y in xs:
                    local[(x, y)] = group.mul[
                        (to_root[y], group.inverse(to_root[x]))
                    ]
            choices.append(local)
        per_fiber.append(choices)
    out = []
    for combo in itertools.product(*per_fiber):
        table = {}
        for local in combo:
            table.update(local)
        for xs in fibers:
            for x in xs:
                if table[(x, x)] != e:
                    raise ConsistencyError(f"reconstructed cocycle is not the identity at {x!r}")
                for y in xs:
                    for z in xs:
                        lhs = group.mul[(table[(y, z)], table[(x, y)])]
                        if lhs != table[(x, z)]:
                            raise ConsistencyError(
                                f"reconstructed cocycle fails g[y,z] g[x,y] = g[x,z]"
                                f" at ({x!r}, {y!r}, {z!r})"
                            )
        out.append(tuple(table[p] for p in pairs))
    return out, pairs


def cochain_action(group, pairs, h, cocycle):
    """Twist a cocycle by a G-valued function on E: g -> h.g.h^-1 pairwise."""
    out = []
    for (x, y), val in zip(pairs, cocycle):
        out.append(group.mul[(h[y], group.mul[(val, group.inverse(h[x]))])])
    return tuple(out)


@dataclass
class CechSkeletonReport:
    cocycle_count: int
    components: int
    stabilizer_order: int
    stabilizer_fiber_constant: bool
    equivalent_to_bg_power: bool
    cardinality: Fraction
    expected_cardinality: Fraction
    fiber_count: int

    def to_json(self):
        return {
            "cocycle_count": self.cocycle_count,
            "components": self.components,
            "stabilizer_order": self.stabilizer_order,
            "stabilizer_fiber_constant": self.stabilizer_fiber_constant,
            "equivalent_to_bg_power": self.equivalent_to_bg_power,
            "cardinality": {
                "num": self.cardinality.numerator,
                "den": self.cardinality.denominator,
            },
            "expected_cardinality": {
                "num": self.expected_cardinality.numerator,
                "den": self.expected_cardinality.denominator,
            },
            "fiber_count": self.fiber_count,
        }


def _orbits(group, cover, cocycles, pairs):
    gens = group.generating_sequence()
    index = {c: i for i, c in enumerate(cocycles)}
    seen = set()
    orbits = []
    e = group.identity()
    for start in cocycles:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            c = frontier.pop()
            for x in cover.e:
                for s in gens:
                    h = {y: e for y in cover.e}
                    h[x] = s
                    nxt = cochain_action(group, pairs, h, c)
                    if nxt not in index:
                        raise ConsistencyError("a cochain twist left the set of cocycles")
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def _stabilizer(group, cover, pairs, cocycle):
    out = []
    for vals in itertools.product(group.elements, repeat=len(cover.e)):
        h = dict(zip(cover.e, vals))
        if cochain_action(group, pairs, h, cocycle) == cocycle:
            out.append(h)
    return out


def cech_descent_skeleton(group, cover, budget=DEFAULT_BUDGET):
    """Skeletal census of the descent groupoid of the cochain presheaf.

    Components are coboundary orbits of cocycles; the stabilizer of the
    trivial cocycle is computed by direct enumeration and compared with
    the fiber-constant functions, which carry the canonical product group
    structure over the base.  The groupoid cardinality comes out exactly
    as sum of 1/|stabilizer| over orbits.
    """
    if group.order() ** len(cover.e) > budget:
        raise CapacityError("cochain group is larger than the budget")
    cocycles, pairs = cech_cocycles(group, cover, budget=budget)
    orbits = _orbits(group, cover, cocycles, pairs)
    fibers = [xs for xs in cover.fibers().values() if xs]
    e = group.identity()
    trivial = tuple(e for _ in pairs)
    stab = _stabilizer(group, cover, pairs, trivial)
    fiber_constant = all(
        len({h[x] for x in xs}) == 1 for h in stab for xs in fibers
    )
    expected_order = group.order() ** len(fibers)
    card = Fraction(0)
    for orbit in orbits:
        rep = sorted(orbit)[0]
        card += Fraction(1, len(_stabilizer(group, cover, pairs, rep)))
    expected = Fraction(1, expected_order)
    equivalent = (
        len(orbits) == 1
        and len(stab) == expected_order
        and fiber_constant
    )
    return CechSkeletonReport(
        cocycle_count=len(cocycles),
        components=len(orbits),
        stabilizer_order=len(stab),
        stabilizer_fiber_constant=fiber_constant,
        equivalent_to_bg_power=equivalent,
        cardinality=card,
        expected_cardinality=expected,
        fiber_count=len(fibers),
    )


def cech_stack_report(group, cover, budget=DEFAULT_BUDGET):
    """Stack verdict for the cochain presheaf, through the skeleton.

    The parts condition for this presheaf is the canonical regrouping of
    G-valued functions along a partition of E, so it reduces to the
    partition being one (which the cover validates); the descent side is
    read off the skeletal census plus an explicit check that the base
    cochains biject onto the stabilizer of the trivial cocycle.
    """
    skel = cech_descent_skeleton(group, cover, budget=budget)
    cocycles, pairs = cech_cocycles(group, cover, budget=budget)
    e = group.identity()
    trivial = tuple(e for _ in pairs)
    stab = {tuple(sorted(h.items())) for h in _stabilizer(group, cover, pairs, trivial)}
    images = set()
    injective = True
    for vals in itertools.product(group.elements, repeat=len(cover.b)):
        hb = dict(zip(cover.b, vals))
        h = tuple(sorted((x, hb[cover.pi[x]]) for x in cover.e))
        if h in images:
            injective = False
        images.add(h)
    ff = injective and images == stab
    ess = skel.components == 1
    return StackReport(
        products_ok=True,
        essentially_surjective=ess,
        fully_faithful=ff,
        is_stack=ess and ff,
        base_objects=1,
        descent_objects=skel.cocycle_count,
        descent_components=skel.components,
        witness="",
    )


@dataclass
class RefinementReport:
    restriction_essentially_surjective: bool
    restriction_fully_faithful: bool
    restriction_is_equivalence: bool
    skeletons_agree: bool

    def to_json(self):
        return {
            "restriction_essentially_surjective": self.restriction_essentially_surjective,
            "restriction_fully_faithful": self.restriction_fully_faithful,
            "restriction_is_equivalence": self.restriction_is_equivalence,
            "skeletons_agree": self.skeletons_agree,
        }


def refinement_invariance(group, cover, refined, r, budget=DEFAULT_BUDGET):
    """Descent along a cover and along a refinement of it agree.

    r maps the refined cover to the original one over the same base.  The
    induced restriction of descent data is checked to be essentially
    surjective (on coboundary orbits) and fully faithful (on stabilizers
    of the trivial cocycle), and the two skeletal censuses are compared.
    """
    if tuple(refined.b) != tuple(cover.b):
        raise InputError("refinement must keep the base")
    if set(r) != set(refined.e):
        raise InputError("r must be defined on exactly the refined cover")
    for x in refined.e:
        if r[x] not in set(cover.e):
            raise InputError(f"r({x}) leaves the original cover")
        if cover.pi[r[x]] != refined.pi[x]:
            raise InputError(f"r does not commute with the projections at {x}")
    cocycles, pairs = cech_cocycles(group, cover, budget=budget)
    cocycles2, pairs2 = cech_cocycles(group, refined, budget=budget)
    pos = {p: i for i, p in enumerate(pairs)}

    def pull(coc):
        return tuple(coc[pos[(r[x], r[y])]] for (x, y) in pairs2)

    orbits2 = _orbits(group, refined, cocycles2, pairs2)
    orbit_of = {}
    for i, orbit in enumerate(orbits2):
        for c in orbit:
            orbit_of[c] = i
    hit = {orbit_of[pull(c)] for c in cocycles}
    ess = len(hit) == len(orbits2)
    e = group.identity()
    trivial = tuple(e for _ in pairs)
    trivial2 = tuple(e for _ in pairs2)
    stab = _stabilizer(group, cover, pairs, trivial)
    stab2 = {
        tuple(sorted(h.items()))
        for h in _stabilizer(group, refined, pairs2, trivial2)
    }
    images = set()
    injective = True
    for h in stab:
        hr = tuple(sorted((x, h[r[x]]) for x in refined.e))
        if hr in images:
            injective = False
        images.add(hr)
    ff = injective and images == stab2
    skel1 = cech_descent_skeleton(group, cover, budget=budget)
    skel2 = cech_descent_skeleton(group, refined, budget=budget)
    agree = (
        skel1.components == skel2.components
        and skel1.stabilizer_order == skel2.stabilizer_order
        and skel1.cardinality == skel2.cardinality
    )
    if agree and skel1.equivalent_to_bg_power and not (ess and ff):
        raise ConsistencyError(
            "skeletal censuses agree but the restriction functor is not an equivalence"
        )
    return RefinementReport(
        restriction_essentially_surjective=ess,
        restriction_fully_faithful=ff,
        restriction_is_equivalence=ess and ff,
        skeletons_agree=agree,
    )


def truncation_agreement_cech(group, cover, budget=DEFAULT_BUDGET):
    """Depth-2 descent data already satisfy every quadruple condition."""
    cocycles, pairs = cech_cocycles(group, cover, budget=budget)
    pos = {p: i for i, p in enumerate(pairs)}
    agree = True
    for coc in cocycles:
        for xs in cover.fibers().values():
            for w, x, y, z in itertools.product(xs, repeat=4):
                direct = coc[pos[(w, z)]]
                via_x = group.mul[(coc[pos[(x, z)]], coc[pos[(w, x)]])]
                via_both = group.mul[
                    (coc[pos[(y, z)]], group.mul[(coc[pos[(x, y)]], coc[pos[(w, x)]])])
                ]
                if direct != via_x or direct != via_both:
                    agree = False
    return TruncationReport({2: len(cocycles), 3: len(cocycles) if agree else -1}, agree)


def truncation_agreement_groupoids(presheaf, cover, budget=DEFAULT_BUDGET):
    """Materialized depth-2 versus depth-3 descent data must coincide."""
    d2 = descent_groupoid(presheaf, cover, depth=2, budget=budget)
    d3 = descent_groupoid(presheaf, cover, depth=3, budget=budget)
    agree = (
        d2.object_data == d3.object_data
        and len(d2.morphism_data) == len(d3.morphism_data)
    )
    return TruncationReport(
        {2: len(d2.object_data), 3: len(d3.object_data)}, agree
    )
