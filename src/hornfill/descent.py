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

The fibre powers are the levels of one Cech nerve of pi, and the site
maps are its integer rows.  Elements and morphisms are tuples over a
level's positions, restricted by one gather through a row.  Values on
large fibre powers are never enumerated: the gluing over E x_B E is
searched entry by entry, and beyond that only single elements are built.
For the presheaf of G-valued cochains the descent groupoid is handled
in skeletal form, fibre by fibre: the cochain group G^E and the set of
cocycles are products over the fibres of pi, so each fibre gets its
cocycles (rebuilt from the root row), its coboundary orbits (search
under generator twists) and its stabilizers (one candidate per value
at the root, each verified), on an integer table of G.  Components,
stabilizer orders and the groupoid cardinality are products of the
fibre counts.  Fibre censuses are kept per (group, fibre size) on the
group, shared by every fibre, cover and call; the materialized
descent_groupoid stays as the independent route for small covers.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .config import DEFAULT_BUDGET
from .errors import CapacityError, ConsistencyError, InputError
from .cat import UnionFind
from .groupoid import FiniteGroupoid, FinMap, cech_nerve


# ---------------------------------------------------------------------------
# covers over the surjection site


class _Site(tuple):
    """A site object of a cover, its points listed by position; functions
    on it are enumerated with the positions of `order` first slowest."""

    def __new__(cls, points, order=None):
        site = super().__new__(cls, points)
        site.order = range(len(site)) if order is None else tuple(order)
        return site


class _Base(_Site):
    """B as a site object, told from E by its type even on the same points."""


@dataclass(frozen=True)
class Cover:
    """A surjection pi: E -> B, optionally split into disjoint parts.

    Site maps are rows, read off the Cech nerve of pi: a coface is a face
    row, the diagonal is the s_0 row, a projection a restriction table.
    """

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

    @cached_property
    def nerve(self):
        """The Cech nerve of pi through level 3, E^4, built on first use."""
        return cech_nerve(FinMap(self.e, self.b, self.pi), level_cap=3)

    @cached_property
    def sites(self):
        """E^(n+1) as a site object at n <= 3: level n of the nerve, with
        points bare on E.  Functions on E are listed in the order of self.e,
        on E^(n+1) in the sorted order of the (n+1)-tuples."""
        levels = self.nerve.levels
        e = tuple(x for (x,) in levels[0])
        at = dict(zip(e, range(len(e))))
        sites = [_Site(e, [at[x] for x in self.e])]
        for level in levels[1:]:
            sites.append(_Site(level, sorted(range(len(level)), key=level.__getitem__)))
        return sites

    def anchor(self):
        """Site map E -> B, as (row, cod)."""
        at = dict(zip(self.b, range(len(self.b))))
        return [at[self.pi[x]] for x in self.sites[0]], _Base(self.b)

    def part_maps(self):
        """Each part, or E alone when the cover is not split, as a site
        object with its inclusion row into E."""
        e = self.sites[0]
        at = dict(zip(e, range(len(e))))
        parts = (e,) if self.parts is None else self.parts
        return [(_Site(part), [at[x] for x in part]) for part in parts]

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


class _Functions:
    """Every tuple of `width` entries drawn from `values`, in the order of
    itertools.product with the entries of `order` (default: left to right)
    first slowest.  Generated as iterated, so a budgeted search can refuse
    before building them all; len() is |values| ** width.
    """

    def __init__(self, values, width, order=None):
        self.values, self.width = tuple(values), width
        self.order = range(width) if order is None else order

    def __len__(self):
        return len(self.values) ** self.width

    def __iter__(self):
        tuples = itertools.product(self.values, repeat=self.width)
        if list(self.order) == list(range(self.width)):
            return tuples
        # where the value of each entry sits in a product tuple
        at = [0] * self.width
        for k, p in enumerate(self.order):
            at[p] = k
        return (tuple(map(vs.__getitem__, at)) for vs in tuples)


class SetPresheaf:
    """Presheaf of finite sets on the surjection site, on positions.

    value(obj) lists the elements over a site object.  restrict(row, cod,
    elem) restricts one element along the site map (row, cod) of a cover.
    show(obj, elem) is an element over obj as a witness prints it.
    """

    def value(self, obj):
        raise NotImplementedError

    def restrict(self, row, cod, elem):
        raise NotImplementedError

    def show(self, obj, elem):
        return elem


class MapPresheaf(SetPresheaf):
    """Sections of the projection: F(S) = all functions S -> values, each
    a tuple indexed by the positions of S; restriction is one gather."""

    def __init__(self, values):
        self.values = tuple(values)

    def value(self, obj):
        return _Functions(self.values, len(obj), obj.order)

    def restrict(self, row, cod, elem):
        return tuple(map(elem.__getitem__, row))

    def show(self, obj, elem):
        """A function as its key-sorted (point, value) pairs."""
        return tuple(sorted(zip(obj, elem)))


class ConstantPresheaf(SetPresheaf):
    """F(S) = the same finite set everywhere, restrictions identities.

    Not a sheaf in general: gluing along a cover with several parts
    would need a product of copies.
    """

    def __init__(self, values):
        self.values = tuple(values)

    def value(self, obj):
        return self.values

    def restrict(self, row, cod, elem):
        return elem


def _is_base(obj, b):
    """Is obj the base b of a cover, as the target of its anchor?"""
    return isinstance(obj, _Base) and obj == b


class DoubledGlobalPresheaf(MapPresheaf):
    """Functions everywhere, but F(B) = values x values, forgetting the
    second coordinate on restriction.  Passes the parts condition and
    fails the equalizer condition: the comparison map is not injective.
    """

    def __init__(self, values, b):
        super().__init__(values)
        self.b = tuple(b)

    def value(self, obj):
        if _is_base(obj, self.b):
            return tuple(itertools.product(self.values, repeat=2))
        return super().value(obj)

    def restrict(self, row, cod, elem):
        if _is_base(cod, self.b):
            return (elem[0],) * len(row)
        return super().restrict(row, cod, elem)

    def show(self, obj, elem):
        return elem if _is_base(obj, self.b) else super().show(obj, elem)


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
    e = cover.sites[0]
    fe = presheaf.value(e)
    witness = ""

    part_maps = cover.part_maps()
    part_values = [presheaf.value(p) for p, _ in part_maps]
    seen = {}
    products_ok = True
    for a in fe:
        key = tuple(presheaf.restrict(row, e, a) for _, row in part_maps)
        if key in seen:
            products_ok = False
            if not witness:
                shown = presheaf.show(e, seen[key]), presheaf.show(e, a)
                witness = "parts: %s and %s agree on every part" % shown
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

    pr1, pr2 = (cover.nerve.restriction_table(1, (v,)) for v in (0, 1))
    eq = [
        a for a in fe if presheaf.restrict(pr1, e, a) == presheaf.restrict(pr2, e, a)
    ]
    row, b = cover.anchor()
    fb = presheaf.value(b)
    images = [presheaf.restrict(row, b, s) for s in fb]
    injective = len(set(images)) == len(fb)
    if not injective and not witness:
        collide = {}
        for s, img in zip(fb, images):
            if img in collide:
                shown = presheaf.show(b, collide[img]), presheaf.show(b, s)
                witness = "equalizer: %s and %s restrict equally" % shown
                break
            collide[img] = s
    surjective = set(images) == set(eq)
    if not surjective and not witness:
        stray = set(images) - set(eq)
        if stray:
            first = min(presheaf.show(e, a) for a in stray)
            witness = f"equalizer: image element {first} not matching"
        else:
            unhit = min(presheaf.show(e, a) for a in set(eq) - set(images))
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


def truncation_agreement_sets(presheaf, cover):
    """Compare the descent limit computed over truncations of depth 1 to 3.

    A compatible family over the fibre-power diagram is pinned down by its
    component at E, so the limit over levels <= N is the set of elements of
    F(E) on which all point projections from each fibre power up to E^(N+1)
    agree.  Levels beyond the first are redundant for set-valued presheaves;
    this makes that concrete instead of assuming it.
    """
    e = cover.sites[0]
    sizes = {}
    survivors = list(presheaf.value(e))
    for level in (1, 2, 3):
        # E^(level+1) -> E onto each coordinate
        rows = [cover.nerve.restriction_table(level, (v,)) for v in range(level + 1)]
        survivors = [
            a for a in survivors
            if len({presheaf.restrict(row, e, a) for row in rows}) == 1
        ]
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
    """Functions on an open, as tuples over its points in sorted order."""

    def __init__(self, values):
        self.values = tuple(values)

    def value(self, space, name):
        return _Functions(self.values, len(space.opens[name]))

    def restrict(self, space, sup, sub, elem):
        at = {p: i for i, p in enumerate(sorted(space.opens[sup]))}
        return tuple(elem[at[p]] for p in sorted(space.opens[sub]))


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
        raise CapacityError(
            f"{total} candidate families exceed budget {budget}", partial=0
        )
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
    """Presheaf of finite groupoids on the surjection site, on positions.

    A morphism is a tuple of group indices (one per position of the site
    object for the torsor presheaf, one in all for BG); homs(s, a, b) is a
    _Functions, and composing zips two morphisms through the integer
    table `mul` (mul[b][a] is b after a).  Restricting along a site map
    (row, cod) gathers through mor_row(row, cod).  Everything is strict;
    descent_groupoid's gluing search reads mul for composition over E^3.
    """

    def objects(self, s):
        raise NotImplementedError

    def homs(self, s, a, b):
        raise NotImplementedError

    def identity(self, s, a):
        raise NotImplementedError

    def restrict_obj(self, row, cod, a):
        raise NotImplementedError

    def mor_row(self, row, cod):
        raise NotImplementedError

    def restrict_mor(self, row, cod, m):
        return tuple(map(m.__getitem__, self.mor_row(row, cod)))

    def compose(self, s, g2, g1):
        return tuple(map(list.__getitem__, map(self.mul.__getitem__, g2), g1))


class _OneObject(GroupoidPresheaf):
    """One object everywhere, morphisms over G's integer table."""

    def __init__(self, group):
        self.group = group
        ig = _int_group(group)
        self.mul, self.e, self.values = ig.mul, ig.e, range(len(ig.elements))

    def objects(self, s):
        return ("*",)

    def identity(self, s, a):
        return (self.e,) * self.homs(s, a, a).width

    def restrict_obj(self, row, cod, a):
        return "*"


class TorsorPresheaf(_OneObject):
    """One object everywhere; morphisms at S are G-valued functions on S.

    This is the presheaf whose descent data along a cover are exactly the
    G-valued cocycles, with coboundaries as morphisms.
    """

    def homs(self, s, a, b):
        return _Functions(self.values, len(s), s.order)

    def mor_row(self, row, cod):
        return row


class ConstantBGPresheaf(_OneObject):
    """The constant presheaf at the one-object groupoid of G.

    Restriction maps are identities, so the value on a disjoint union is
    one copy of BG instead of a product of copies: the parts condition
    fails on any cover with at least two parts (unless G is trivial).
    """

    def homs(self, s, a, b):
        return _Functions(self.values, 1)

    def mor_row(self, row, cod):
        return (0,)


class DoubledBGPresheaf(ConstantBGPresheaf):
    """BG everywhere except B(G x G) on the base, forgetting one factor.

    Satisfies the parts condition when the cover is not split, but the
    comparison to descent data is not faithful: both base factors restrict
    to the same cocycle.
    """

    def __init__(self, group, b):
        super().__init__(group)
        self.b = tuple(b)

    def homs(self, s, a, b):
        return _Functions(self.values, 2 if _is_base(s, self.b) else 1)


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


def _descent_objects(presheaf, cover, budget):
    """The gluings (a, phi) that satisfy normalization and the cocycle
    condition, phi searched entry by entry in the order its hom set lists
    functions, so gluings come out in that order.  Normalization fixes
    the entries the diagonal reads, and a cocycle triple (phi[d0 t],
    phi[d1 t], phi[d2 t] for t over E^3) is checked once all three are
    set.  Each value tried is one trial; the budget is checked as each
    value's branch ends."""
    nerve, mul = cover.nerve, presheaf.mul
    e, e2 = cover.sites[0], cover.sites[1]
    diag = presheaf.mor_row(nerve.degs[0][0], e2)
    triples = dict.fromkeys(zip(*(presheaf.mor_row(row, e2) for row in nerve.faces[2])))
    out = []
    trials = 0
    for a in presheaf.objects(e):
        src, tgt = (presheaf.restrict_obj(nerve.faces[1][i], e, a) for i in (1, 0))
        homs = presheaf.homs(e2, src, tgt)
        ident = presheaf.identity(e, a)
        fixed = dict(zip(diag, ident))
        if [fixed[p] for p in diag] != list(ident) or not set(ident) <= set(homs.values):
            continue  # no gluing is normalized
        phi = [fixed.get(p) for p in range(homs.width)]
        order = [p for p in homs.order if phi[p] is None]
        # checks[k]: the triples whose entries are all set once the first k
        # entries of the order are
        depth = {p: k + 1 for k, p in enumerate(order)}
        checks = [[] for _ in range(len(order) + 1)]
        for t in triples:
            checks[max(depth.get(p, 0) for p in t)].append(t)

        def extend(k):
            nonlocal trials
            if not all(mul[phi[f0]][phi[f2]] == phi[f1] for f0, f1, f2 in checks[k]):
                return
            if k == len(order):
                out.append((a, tuple(phi)))
                return
            for v in homs.values:
                trials += 1
                phi[order[k]] = v
                extend(k + 1)
                if trials > budget:
                    raise CapacityError(
                        f"descent object search passed {budget} trials", partial=len(out)
                    )

        extend(0)
    return out


def _quadruple_conditions(presheaf, e2, e4, projections, phi):
    """All parallel composites of the gluing morphism over E^4 agree;
    projections[(p, q)] is the row of E^4 -> E^2 onto coordinates p < q."""
    if not e4:
        return True
    pulled = {pq: presheaf.restrict_mor(row, e2, phi) for pq, row in projections.items()}
    comp = lambda g2, g1: presheaf.compose(e4, g2, g1)
    direct = pulled[(0, 3)]
    routes = [
        comp(pulled[(1, 3)], pulled[(0, 1)]),
        comp(pulled[(2, 3)], pulled[(0, 2)]),
        comp(pulled[(2, 3)], comp(pulled[(1, 2)], pulled[(0, 1)])),
    ]
    return all(r == direct for r in routes)


def descent_groupoid(presheaf, cover, budget=DEFAULT_BUDGET):
    """Materialize the groupoid of descent data for a cover.

    Objects are pairs (a, phi): an object of F(E) with a gluing morphism
    over E x_B E satisfying normalization and the cocycle condition.
    Morphisms are the morphisms of F(E) commuting with the gluings.  The
    quadruple conditions over E^4 follow from these for a strict presheaf;
    truncation_agreement_groupoids checks that on the built objects.
    Gluings are searched entry by entry, but every morphism of F(E)
    between two objects is a candidate and the whole table is built (6,561
    morphisms for the C3 torsor presheaf on (3,2)), so this is for small
    covers; cech_descent_skeleton serves the cochain presheaf at scale.
    The budget caps the gluing search's trials and the morphism search's
    candidates; a CapacityError carries the objects (in the morphism
    search, the morphisms) found so far as partial.
    """
    nerve = cover.nerve
    e, e2 = cover.sites[0], cover.sites[1]
    d0, d1 = nerve.faces[1][0], nerve.faces[1][1]
    objects = _descent_objects(presheaf, cover, budget)
    names = [f"z{i}" for i in range(len(objects))]
    morphisms = {}
    morphism_data = {}
    # h: a -> a2 is a morphism (a, phi) -> (a2, phi2) when d0*h o phi equals
    # phi2 o d1*h.  Each side is computed once per (i, h) and per (j, h),
    # when the search first reaches it: left[(i, a2)][k] and
    # right[(j, a)][k] belong to the k-th h of homs(a, a2)
    left, right = {}, {}
    steps = 0
    for i, (a, phi) in enumerate(objects):
        for j, (a2, phi2) in enumerate(objects):
            lrow = left.setdefault((i, a2), [])
            rrow = right.setdefault((j, a), [])
            for k, h in enumerate(presheaf.homs(e, a, a2)):
                steps += 1
                if steps > budget:
                    raise CapacityError(
                        f"descent morphism search passed {budget} candidates",
                        partial=len(morphisms),
                    )
                if k == len(lrow):
                    lrow.append(presheaf.compose(e2, presheaf.restrict_mor(d0, e, h), phi))
                if k == len(rrow):
                    rrow.append(presheaf.compose(e2, phi2, presheaf.restrict_mor(d1, e, h)))
                if lrow[k] != rrow[k]:
                    continue
                name = f"h{len(morphisms)}"
                morphisms[name] = (names[i], names[j])
                morphism_data[name] = (i, j, h)
    # the morphisms of F(E) that occur, numbered in order of appearance;
    # named[k][i][b] is the descent morphism z_i -> z_k over the b-th
    hs = list(dict.fromkeys(h for _, _, h in morphism_data.values()))
    number = dict(zip(hs, range(len(hs))))
    named = [[{} for _ in objects] for _ in objects]
    for name, (i, j, h) in morphism_data.items():
        named[j][i][number[h]] = name
    identity = {}
    for i, (a, phi) in enumerate(objects):
        name = named[i][i].get(number.get(presheaf.identity(e, a)))
        if name is None:
            raise ConsistencyError(f"identity of {names[i]} is not a descent morphism")
        identity[names[i]] = name
    # the composable pairs (n2, n1): n1 ends where n2 starts.  h2 o h1 is
    # computed once per pair of numbers, since each h recurs between
    # other descent objects: composites[b2][b1] is the number of h2 o h1
    into = [[] for _ in objects]
    for n1, (i, j, h1) in morphism_data.items():
        into[j].append((n1, i, number[h1]))
    compose, composites = {}, [{} for _ in hs]
    for n2, (j, k, h2) in morphism_data.items():
        row, named_k = composites[number[h2]], named[k]
        for n1, i, b1 in into[j]:
            c = row.get(b1)
            if c is None:
                c = row[b1] = number.get(presheaf.compose(e, h2, hs[b1]))
            name = named_k[i].get(c)
            if name is None:
                raise ConsistencyError("descent morphisms are not closed under composition")
            compose[(n2, n1)] = name
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
    e = cover.sites[0]
    part_maps = cover.part_maps()
    parts = [p for p, _ in part_maps]
    objs_e = presheaf.objects(e)
    part_objs = [presheaf.objects(p) for p in parts]

    def components(s, objs):
        # each object's component root, joining objects with a nonempty hom set
        objs = tuple(objs)
        classes = UnionFind(range(len(objs)))
        for i, x in enumerate(objs):
            for j in range(i + 1, len(objs)):
                if presheaf.homs(s, x, objs[j]) or presheaf.homs(s, objs[j], x):
                    classes.union(i, j)
        return {x: classes.find(i) for i, x in enumerate(objs)}

    # with no parts the product is the terminal groupoid, of one object
    total = 1
    for objs in part_objs:
        total *= len(objs)
    widest = max((len(p) + 1 for p in part_objs), default=2)
    if total > budget or len(objs_e) * widest > budget:
        raise CapacityError(
            "parts condition would materialize too many objects", partial=0
        )

    part_components = [components(p, objs) for p, objs in zip(parts, part_objs)]
    image_keys = set()
    for a in objs_e:
        img = tuple(presheaf.restrict_obj(row, e, a) for _, row in part_maps)
        image_keys.add(tuple(comp[x] for comp, x in zip(part_components, img)))
    all_keys = set(itertools.product(*[set(comp.values()) for comp in part_components]))
    ess = image_keys == all_keys
    ff = True
    witness = ""
    for a in objs_e:
        for b in objs_e:
            homs_e = presheaf.homs(e, a, b)
            imgs = []
            for h in homs_e:
                imgs.append(tuple(presheaf.restrict_mor(row, e, h) for _, row in part_maps))
            if len(set(imgs)) != len(homs_e):
                ff = False
                witness = "parts: two morphisms over E agree on every part"
                break
            ra = [presheaf.restrict_obj(row, e, a) for _, row in part_maps]
            rb = [presheaf.restrict_obj(row, e, b) for _, row in part_maps]
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


def check_stack_groupoids(presheaf, cover, budget=DEFAULT_BUDGET):
    """Stack conditions for a groupoid-valued presheaf, by materialization.

    Condition (i): restriction to the parts is an equivalence onto the
    product.  Condition (ii): the comparison functor F(B) -> Desc(cover)
    is essentially surjective and fully faithful.  Suitable for small
    values only; everything is enumerated.
    """
    products_ok, witness = _products_condition(presheaf, cover, budget)
    desc = descent_groupoid(presheaf, cover, budget)
    e2 = cover.sites[1]
    anchor, b = cover.anchor()
    anchor2 = [anchor[p] for p in cover.nerve.restriction_table(1, (0,))]
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


class _IntGroup:
    """A finite group on the integers 0..n-1, numbered in element order.

    mul[a][b] is the index of a.b and col[b][a] the same product read by
    its right factor; inv, e and gens are the inverses, the identity and
    the group's generating sequence as indices.  fibres[k] is the census
    of a fibre of k points, shared by every fibre of that size.
    """

    def __init__(self, group):
        index = {a: i for i, a in enumerate(group.elements)}
        self.elements = group.elements
        self.mul = [
            [index[group.mul[(a, b)]] for b in group.elements] for a in group.elements
        ]
        self.col = [list(column) for column in zip(*self.mul)]
        self.inv = [index[group.inverse(a)] for a in group.elements]
        self.e = index[group.identity()]
        self.gens = [index[s] for s in group.generating_sequence()]
        self.fibres = {}


def _int_group(group):
    """The group's _IntGroup, built on first use and kept on the group."""
    if group._cech is None:
        group._cech = _IntGroup(group)
    return group._cech


class _Fibre:
    """Cocycles, coboundary orbits and stabilizers on a fibre of k points.

    With the fibre's points x_0..x_{k-1} (x_0 is the root), a cocycle is a
    tuple of k*k group indices, position i*k + j holding g[x_i, x_j], and a
    cochain is a tuple of k indices.  A cocycle is the coboundary of its
    root row, g[x, y] = g[r, y] g[r, x]^-1, so the cocycles are listed by
    root row and each table is verified once.  A cochain h fixes a cocycle
    exactly when h[y] = g[r, y] h[r] g[r, y]^-1, so a stabilizer has one
    candidate per value of h[r], each verified by the twist.  The points
    only name a failed check; stabilizers are computed on first use.
    """

    def __init__(self, ig, points):
        self.ig = ig
        self.k = k = len(points)
        mul, inv, e = ig.mul, ig.inv, ig.e
        self.cocycles = []
        for rest in itertools.product(range(len(ig.elements)), repeat=k - 1):
            row = (e,) + rest
            self.cocycles.append(tuple(mul[b][inv[a]] for a in row for b in row))
        self._verify(points)
        self.index = {c: i for i, c in enumerate(self.cocycles)}
        self.orbits, self.orbit_of = self._orbits()

    @cached_property
    def orbit_stabilizer_orders(self):
        return [len(self.stabilizer(self.cocycles[orbit[0]])) for orbit in self.orbits]

    @cached_property
    def trivial_stabilizer(self):
        return self.stabilizer((self.ig.e,) * (self.k * self.k))

    @cached_property
    def quadruples_agree(self):
        return all(self.quadruples_hold(c) for c in self.cocycles)

    def _verify(self, points):
        """Normalization, and g[y,z] g[x,y] = g[x,z] as row x = row y . g[x,y]."""
        k = self.k
        col, e = self.ig.col, self.ig.e
        for c in self.cocycles:
            rows = [c[i * k:(i + 1) * k] for i in range(k)]
            for x in range(k):
                if rows[x][x] != e:
                    raise ConsistencyError(
                        f"reconstructed cocycle is not the identity at {points[x]!r}"
                    )
                for y in range(k):
                    composed = tuple(map(col[rows[x][y]].__getitem__, rows[y]))
                    if composed != rows[x]:
                        z = next(z for z in range(k) if composed[z] != rows[x][z])
                        names = tuple(points[i] for i in (x, y, z))
                        raise ConsistencyError(
                            "reconstructed cocycle fails g[y,z] g[x,y] = g[x,z]"
                            " at (%r, %r, %r)" % names
                        )

    def twist(self, h, c):
        """The cochain h acting on the cocycle c: g[x,y] -> h[y] g[x,y] h[x]^-1."""
        k = self.k
        mul, inv = self.ig.mul, self.ig.inv
        return tuple(
            mul[mul[h[j]][c[i * k + j]]][inv[h[i]]] for i in range(k) for j in range(k)
        )

    def _orbits(self):
        """Coboundary orbits by search under generator twists at one point.

        The twist by s at x multiplies row x by s^-1 on the right and
        column x by s on the left; each move is kept as one value table
        per position, so a twist is one pass over the cocycle.
        """
        k = self.k
        ig = self.ig
        unmoved = list(range(len(ig.elements)))
        moves = []
        for x in range(k):
            for s in ig.gens:
                left, right = ig.mul[s], ig.col[ig.inv[s]]
                both = [right[v] for v in left]
                moves.append([
                    both if i == j == x else right if i == x else left if j == x else unmoved
                    for i in range(k) for j in range(k)
                ])
        at = list.__getitem__
        orbit_of = [None] * len(self.cocycles)
        orbits = []
        for start in range(len(self.cocycles)):
            if orbit_of[start] is not None:
                continue
            label = len(orbits)
            orbit_of[start] = label
            orbit = [start]
            frontier = [start]
            while frontier:
                c = self.cocycles[frontier.pop()]
                for tables in moves:
                    nxt = self.index.get(tuple(map(at, tables, c)))
                    if nxt is None:
                        raise ConsistencyError("a cochain twist left the set of cocycles")
                    if orbit_of[nxt] is None:
                        orbit_of[nxt] = label
                        orbit.append(nxt)
                        frontier.append(nxt)
            orbits.append(orbit)
        return orbits, orbit_of

    def stabilizer(self, c):
        """The cochains on the fibre that fix the cocycle c."""
        mul, inv = self.ig.mul, self.ig.inv
        root_row = c[:self.k]
        out = []
        for a in range(len(self.ig.elements)):
            h = tuple(mul[mul[g][a]][inv[g]] for g in root_row)
            if self.twist(h, c) == c:
                out.append(h)
        return out

    def quadruples_hold(self, c):
        """g[w,z] = g[x,z] g[w,x] = g[y,z] g[x,y] g[w,x] on every quadruple."""
        k = self.k
        mul, col = self.ig.mul, self.ig.col
        rows = [c[i * k:(i + 1) * k] for i in range(k)]
        for w in range(k):
            for x in range(k):
                gwx = c[w * k + x]
                if tuple(map(col[gwx].__getitem__, rows[x])) != rows[w]:
                    return False
                for y in range(k):
                    via = col[mul[c[x * k + y]][gwx]]
                    if tuple(map(via.__getitem__, rows[y])) != rows[w]:
                        return False
        return True


class _CechCensus:
    """The descent groupoid of the cochain presheaf on one cover, by fibres.

    The cochain group G^E and the set of cocycles are both products over
    the fibres of pi, and the twist acts fibre by fibre, so coboundary
    orbits and stabilizers are products too: the census keeps one _Fibre
    per base point, in the order of cover.b, and its points in points; the
    _Fibre is the one the group keeps for that fibre size.  The budget caps
    the candidates enumerated, that is fibre cocycles, stabilizer
    candidates (|G| per stabilizer) and any product list built on top, and
    is charged as if each _Fibre were built anew; CapacityError.partial is
    the number of fibres done.
    """

    def __init__(self, group, cover, budget):
        self.ig = ig = _int_group(group)
        self.budget = budget
        self.spent = 0
        self.fibres = []
        self.points = list(cover.fibers().values())
        for points in self.points:
            k, n = len(points), len(ig.elements)
            self.spend(n ** (k - 1), "cocycles")
            if k not in ig.fibres:
                ig.fibres[k] = _Fibre(ig, points)
            self.spend(n * (len(ig.fibres[k].orbits) + 1), "stabilizer candidates")
            self.fibres.append(ig.fibres[k])

    def spend(self, candidates, what):
        self.spent += candidates
        if self.spent > self.budget:
            raise CapacityError(
                f"descent census passed budget {self.budget} at {what}"
                f" after {len(self.fibres)} complete fibres",
                partial=len(self.fibres),
            )

    @property
    def cocycle_count(self):
        return math.prod(len(f.cocycles) for f in self.fibres)

    @property
    def components(self):
        return math.prod(len(f.orbits) for f in self.fibres)

    def skeleton(self):
        order = len(self.ig.elements)
        components = self.components
        stabilizer_order = math.prod(len(f.trivial_stabilizer) for f in self.fibres)
        fiber_constant = all(
            len(set(h)) == 1 for f in self.fibres for h in f.trivial_stabilizer
        )
        expected_order = order ** len(self.fibres)
        cardinality = math.prod(
            (sum(Fraction(1, s) for s in f.orbit_stabilizer_orders) for f in self.fibres),
            start=Fraction(1),
        )
        return CechSkeletonReport(
            cocycle_count=self.cocycle_count,
            components=components,
            stabilizer_order=stabilizer_order,
            stabilizer_fiber_constant=fiber_constant,
            equivalent_to_bg_power=(
                components == 1
                and stabilizer_order == expected_order
                and fiber_constant
            ),
            cardinality=cardinality,
            expected_cardinality=Fraction(1, expected_order),
            fiber_count=len(self.fibres),
        )


def _restriction_is_bijective(images, stabilizer):
    """A list of restricted cochains hits each cochain of a stabilizer once."""
    return len(set(images)) == len(images) and set(images) == set(stabilizer)


def cech_cocycles(group, cover, budget=DEFAULT_BUDGET):
    """All G-valued cocycles on a cover, as tuples over same-fiber pairs.

    A cocycle assigns g[x,y] to each same-fiber pair with g[y,z] g[x,y]
    = g[x,z]; it is determined by its values against a root per fiber.
    The list is the product of the per-fibre cocycles, first fibre
    outermost, each fibre's cocycles in the order of their root rows.
    """
    census = _CechCensus(group, cover, budget)
    pairs = _same_fiber_pairs(cover)
    slot = {}
    for fi, points in enumerate(census.points):
        k = len(points)
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                slot[(x, y)] = (fi, i * k + j)
    slots = [slot[p] for p in pairs]
    census.spend(census.cocycle_count, "the cocycle list")
    elements = group.elements
    out = [
        tuple(elements[combo[fi][p]] for fi, p in slots)
        for combo in itertools.product(*(f.cocycles for f in census.fibres))
    ]
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


def cech_descent_skeleton(group, cover, budget=DEFAULT_BUDGET):
    """Skeletal census of the descent groupoid of the cochain presheaf.

    Components are coboundary orbits of cocycles and the groupoid
    cardinality is the exact sum of 1/|stabilizer| over orbits.  Both are
    computed fibre by fibre and multiplied: cocycles from root rows,
    orbits by search under generator twists, stabilizers from one
    candidate per value at the root.  The stabilizer of the trivial
    cocycle is compared with the fiber-constant functions, which carry
    the canonical product group structure over the base.
    """
    return _CechCensus(group, cover, budget).skeleton()


def cech_stack_report(group, cover, budget=DEFAULT_BUDGET):
    """Stack verdict for the cochain presheaf, through the skeleton.

    The parts condition for this presheaf is the canonical regrouping of
    G-valued functions along a partition of E, so it reduces to the
    partition being one (which the cover validates).  The descent side is
    read off the census of the cover: essential surjectivity is one
    coboundary orbit, and full faithfulness is the base cochains mapping
    bijectively onto the stabilizer of the trivial cocycle, checked on
    each fibre (the constant cochains of the fibre's base point).
    """
    census = _CechCensus(group, cover, budget)
    order = len(census.ig.elements)
    ff = all(
        _restriction_is_bijective(
            [(a,) * f.k for a in range(order)], f.trivial_stabilizer
        )
        for f in census.fibres
    )
    components = census.components
    ess = components == 1
    return StackReport(
        products_ok=True,
        essentially_surjective=ess,
        fully_faithful=ff,
        is_stack=ess and ff,
        base_objects=1,
        descent_objects=census.cocycle_count,
        descent_components=components,
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
    r sends each refined fibre into the original fibre over the same base
    point, so both checks run fibre by fibre on the two censuses.
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
    census = _CechCensus(group, cover, budget)
    census2 = _CechCensus(group, refined, budget)
    ess = ff = True
    for fi, (f, f2) in enumerate(zip(census.fibres, census2.fibres)):
        at = {x: i for i, x in enumerate(census.points[fi])}
        rpos = [at[r[x]] for x in census2.points[fi]]
        k = f.k
        hit = {
            f2.orbit_of[f2.index[tuple(c[i * k + j] for i in rpos for j in rpos)]]
            for c in f.cocycles
        }
        ess = ess and len(hit) == len(f2.orbits)
        images = [tuple(h[i] for i in rpos) for h in f.trivial_stabilizer]
        ff = ff and _restriction_is_bijective(images, f2.trivial_stabilizer)
    skel1 = census.skeleton()
    skel2 = census2.skeleton()
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
    """Depth-2 descent data already satisfy every quadruple condition.

    Every quadruple of E^4 lies in one fibre and every cocycle restricts
    to a cocycle on each fibre, so the conditions are checked once per
    fibre census that the group keeps, not once per cocycle of the cover.
    """
    census = _CechCensus(group, cover, budget)
    agree = all(f.quadruples_agree for f in census.fibres)
    count = census.cocycle_count
    return TruncationReport({2: count, 3: count if agree else -1}, agree)


def truncation_agreement_groupoids(presheaf, cover, budget=DEFAULT_BUDGET):
    """Depth-2 descent data already satisfy every quadruple condition.

    The depth-2 groupoid is materialized once, with all its checks, and
    its objects are filtered through the quadruple conditions over E^4.
    Morphisms depend only on the objects, so depth 3 can only drop
    objects: sizes counts the objects at each depth, and the truncations
    agree when none is dropped.
    """
    objects = descent_groupoid(presheaf, cover, budget).object_data
    e2, e4 = cover.sites[1], cover.sites[3]
    projections = {
        (p, q): cover.nerve.restriction_table(3, (p, q))
        for p in range(4) for q in range(p + 1, 4)
    }
    kept = sum(
        _quadruple_conditions(presheaf, e2, e4, projections, phi) for _, phi in objects
    )
    return TruncationReport({2: len(objects), 3: kept}, kept == len(objects))
