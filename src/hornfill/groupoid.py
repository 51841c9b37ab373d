"""Finite groups, actions, groupoids, and simplicial objects in sets.

Conventions.  Group multiplication `mul[(g, h)]` is "g after h": acting by
h first and then by g equals acting by mul[(g, h)].  The quotient groupoid
[X/G] of an action has a morphism (g, x): x -> g.x for every pair, composed
by (h, g.x) o (g, x) = (hg, x).  The bar construction is its nerve, level n
G^n x X, with d_0 applying the first group element, inner d_i merging
adjacent ones, and d_n dropping the last; the Cech nerve of pi: E -> B is
the nerve of [E/R], R = E x_B E.  Both come unchecked from the nerve
routine of `cat`, by proof.  The comparison of the bar construction with
the Cech nerve of the anchor map is a levelwise bijection exactly on torsors.
A group is also a one-object category, kept on the group, so group
isomorphism is `categories_isomorphic` on those, run by the one map search.

All checks are exhaustive; cardinalities use exact rationals.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_BUDGET, DEFAULT_LEVEL_CAP
from .errors import InputError, ValidationError
from .cat import FiniteCategory, UnionFind, _nerve_rows, _within, categories_isomorphic
from .sset import SimplicialObject, _then, check_level_cap


class FinMap:
    """A total map between explicit finite sets."""

    def __init__(self, dom, cod, table):
        self.dom = tuple(sorted(dom))
        self.cod = tuple(sorted(cod))
        self.table = dict(table)
        self.validate()

    def validate(self):
        if len(set(self.dom)) != len(self.dom) or len(set(self.cod)) != len(self.cod):
            raise ValidationError("map has repeated points")
        if set(self.table) != set(self.dom):
            raise ValidationError("map not total on its domain")
        bad = [x for x, y in self.table.items() if y not in set(self.cod)]
        if bad:
            raise ValidationError(f"map leaves codomain at {bad[0]!r}")

    def __call__(self, x):
        return self.table[x]

    def fiber(self, b):
        return tuple(x for x in self.dom if self.table[x] == b)

    def __repr__(self):
        return f"FinMap({len(self.dom)} -> {len(self.cod)})"


class FiniteGroup:
    def __init__(self, elements, mul):
        self.elements = tuple(sorted(elements))
        self.mul = dict(mul)
        self._cech = None  # descent's integer table, with its fibre censuses
        self.validate()

    def validate(self):
        """Distinct elements, an identity, the table as a one-object
        category (closure, units, associativity), then inverses; the
        identity, the category (with its nerve) and the inverses are kept."""
        es, mul = self.elements, self.mul
        if len(set(es)) != len(es):
            raise ValidationError("duplicate group elements")
        for e in es:
            if all(mul.get((e, x)) == x == mul.get((x, e)) for x in es):
                break
        else:
            raise ValidationError("no identity element")
        self._identity = e
        self._category = _within("group table", lambda: FiniteCategory(
            ("*",), {a: ("*", "*") for a in es}, {"*": e}, mul))
        self._inverse = {}
        for a in es:
            for b in es:
                if mul[(a, b)] == e == mul[(b, a)]:
                    self._inverse[a] = b
                    break
            else:
                raise ValidationError(f"no inverse for {a!r}")

    def one_object_category(self):
        """The group as a category on one object "*", built when the group
        is, so that its nerve is built once too (`cat._nerve2`)."""
        return self._category

    def identity(self):
        return self._identity

    def inverse(self, a):
        return self._inverse[a]

    def order(self):
        return len(self.elements)

    def generated_by(self, seed):
        out = {self.identity()}
        frontier = list(out)
        seed = set(seed) | out
        while frontier:
            x = frontier.pop()
            for g in seed:
                for y in (self.mul[(x, g)], self.mul[(g, x)]):
                    if y not in out:
                        out.add(y)
                        frontier.append(y)
        return out

    def generating_sequence(self):
        gens = []
        sub = {self.identity()}
        for x in self.elements:
            if x not in sub:
                gens.append(x)
                sub = self.generated_by(gens)
        return gens

    def subgroup(self, elements):
        """The subgroup on `elements`; validation rejects a subset that is not one."""
        return FiniteGroup(elements, {(a, b): self.mul[(a, b)] for a in elements for b in elements})

    def __repr__(self):
        return f"FiniteGroup(order {len(self.elements)})"


def trivial_group():
    return FiniteGroup(("e",), {("e", "e"): "e"})


def cyclic_group(n):
    els = tuple(f"c{i}" for i in range(n))
    mul = {(f"c{i}", f"c{j}"): f"c{(i + j) % n}" for i in range(n) for j in range(n)}
    return FiniteGroup(els, mul)


def symmetric_group(n):
    perms = list(itertools.permutations(range(n)))
    name = lambda p: "".join(str(v) for v in p)
    mul = {}
    for p in perms:
        for q in perms:
            r = tuple(p[q[i]] for i in range(n))
            mul[(name(p), name(q))] = name(r)
    return FiniteGroup(tuple(name(p) for p in perms), mul)


def direct_product(g, h):
    els = tuple(f"({a},{b})" for a in g.elements for b in h.elements)
    mul = {}
    for a1 in g.elements:
        for b1 in h.elements:
            for a2 in g.elements:
                for b2 in h.elements:
                    mul[(f"({a1},{b1})", f"({a2},{b2})")] = (
                        f"({g.mul[(a1, a2)]},{h.mul[(b1, b2)]})"
                    )
    return FiniteGroup(els, mul)


def groups_isomorphic(g, h, budget=DEFAULT_BUDGET):
    """An isomorphism g -> h as a dict, or None (exhaustive).

    The isomorphisms of the one-object categories, found by
    `categories_isomorphic` with the one map search: the budget counts its
    trials, and a CapacityError carries the number of nerve generators
    matched as partial.
    """
    f = categories_isomorphic(g.one_object_category(), h.one_object_category(), budget=budget)
    return None if f is None else f.on_morphisms


# -- group actions --------------------------------------------------------------


class GroupAction:
    """A left action of a finite group, optionally anchored over a base map."""

    def __init__(self, group, carrier, act, base=None):
        self.group = group
        self.carrier = tuple(sorted(carrier))
        self.act = dict(act)
        self.base = None
        if base is not None:
            b_set, pi = base
            self.base = (tuple(sorted(b_set)), dict(pi))
        self.validate()

    def validate(self):
        xs = set(self.carrier)
        if len(xs) != len(self.carrier):
            raise ValidationError("duplicate carrier points")
        for g in self.group.elements:
            for x in self.carrier:
                if (g, x) not in self.act or self.act[(g, x)] not in xs:
                    raise ValidationError(f"action not total at ({g!r},{x!r})")
        e = self.group.identity()
        for x in self.carrier:
            if self.act[(e, x)] != x:
                raise ValidationError(f"identity moves {x!r}")
        for g in self.group.elements:
            for hh in self.group.elements:
                for x in self.carrier:
                    if self.act[(g, self.act[(hh, x)])] != self.act[(self.group.mul[(g, hh)], x)]:
                        raise ValidationError(f"action not associative at ({g!r},{hh!r},{x!r})")
        if self.base is not None:
            b_set, pi = self.base
            if len(set(b_set)) != len(b_set):
                raise ValidationError("duplicate base points")
            if set(pi) != set(self.carrier):
                raise ValidationError("anchor map not total")
            if not set(pi.values()) <= set(b_set):
                raise ValidationError("anchor map leaves its codomain")
            for g in self.group.elements:
                for x in self.carrier:
                    if pi[self.act[(g, x)]] != pi[x]:
                        raise ValidationError(f"action moves {x!r} across fibers")

    def orbit(self, x):
        return tuple(sorted({self.act[(g, x)] for g in self.group.elements}))

    def orbits(self):
        seen = set()
        out = []
        for x in self.carrier:
            if x not in seen:
                o = self.orbit(x)
                out.append(o)
                seen.update(o)
        return out

    def __repr__(self):
        return f"GroupAction({self.group!r} on {len(self.carrier)} points)"


def stabilizer(action, x):
    els = [g for g in action.group.elements if action.act[(g, x)] == x]
    return action.group.subgroup(els)


# -- finite groupoids ------------------------------------------------------------


class FiniteGroupoid(FiniteCategory):
    def validate(self):
        super().validate()
        for f in self.mor:
            if self.inverse(f) is None:
                raise ValidationError(f"morphism {f!r} has no inverse")

    def automorphism_group(self, x):
        """The group of endomorphisms of x, built once per object and kept,
        so that its one-object category and nerve are built once too."""
        groups = self.__dict__.setdefault("_automorphism_groups", {})
        if x not in groups:
            els = self.hom(x, x)
            groups[x] = FiniteGroup(els, {(b, a): self.compose_table[(b, a)]
                                          for b in els for a in els})
        return groups[x]

    def components(self):
        classes = UnionFind(self.objects)
        for (s, t) in self.mor.values():
            classes.union(s, t)
        return {rep: tuple(objs) for rep, objs in sorted(classes.classes().items())}


def quotient_groupoid(action):
    """The action groupoid: objects the carrier, morphisms (g, x): x -> g.x."""
    name = lambda g, x: f"{g}*{x}"
    mor = {}
    for g in action.group.elements:
        for x in action.carrier:
            mor[name(g, x)] = (x, action.act[(g, x)])
    identity = {x: name(action.group.identity(), x) for x in action.carrier}
    compose = {}
    for g in action.group.elements:
        for x in action.carrier:
            gx = action.act[(g, x)]
            for hh in action.group.elements:
                compose[(name(hh, gx), name(g, x))] = name(action.group.mul[(hh, g)], x)
    return FiniteGroupoid(action.carrier, mor, identity, compose)


def groupoid_of_groups(groups):
    """Disjoint union of one-object groupoids, one per entry of `groups`."""
    objects = sorted(groups)
    mor = {}
    identity = {}
    compose = {}
    for obj in objects:
        g = groups[obj]
        for a in g.elements:
            mor[f"{obj}:{a}"] = (obj, obj)
        identity[obj] = f"{obj}:{g.identity()}"
        for a in g.elements:
            for b in g.elements:
                compose[(f"{obj}:{b}", f"{obj}:{a}")] = f"{obj}:{g.mul[(b, a)]}"
    return FiniteGroupoid(objects, mor, identity, compose)


@dataclass
class SkeletonResult:
    components: dict
    groups: dict

    def reps(self):
        return tuple(sorted(self.components))


def skeleton(gpd):
    comps = gpd.components()
    return SkeletonResult(comps, {rep: gpd.automorphism_group(rep) for rep in comps})


@dataclass
class EquivalenceReport:
    equivalent: bool
    matching: dict
    reason: str


def equivalence_check(g1, g2, budget=DEFAULT_BUDGET):
    """Equivalence of finite groupoids: a bijection of components with
    isomorphic automorphism groups.  Isomorphism is an equivalence
    relation, so first-fit matching finds one exactly when one exists."""
    s1, s2 = skeleton(g1), skeleton(g2)
    reps1, reps2 = s1.reps(), s2.reps()
    if len(reps1) != len(reps2):
        return EquivalenceReport(
            False, {}, f"component counts differ: {len(reps1)} vs {len(reps2)}"
        )
    compatible = {
        r1: [
            r2
            for r2 in reps2
            if groups_isomorphic(s1.groups[r1], s2.groups[r2], budget=budget) is not None
        ]
        for r1 in reps1
    }
    matching = {}
    for r1 in reps1:
        r2 = next((r2 for r2 in compatible[r1] if r2 not in matching.values()), None)
        if r2 is None:
            return EquivalenceReport(False, {}, "no automorphism-compatible component matching")
        matching[r1] = r2
    return EquivalenceReport(True, matching, "components matched")


def groupoid_cardinality(gpd):
    """Sum of 1/|Aut| over components, as an exact rational."""
    sk = skeleton(gpd)
    return sum(
        (Fraction(1, sk.groups[rep].order()) for rep in sk.reps()), Fraction(0)
    )


# -- simplicial objects in finite sets -------------------------------------------


def cech_nerve(pi, level_cap=DEFAULT_LEVEL_CAP):
    """The Cech nerve of pi: E -> B, the nerve of the quotient groupoid
    [E/R] of R = E x_B E: its objects are the points of E, fibre by fibre,
    with an arrow (x, y) for each pair in a fibre, by x then y, composed by
    transitivity, the diagonal giving identities.  The chain x_0 -> ... ->
    x_n is (x_0, ..., x_n), so level n is one block per base point, the
    (n + 1)-tuples of its fibre in product order; d_i drops x_i and s_i
    repeats it.  The simplicial identities are not checked (`validate` is
    the test oracle): [E/R] is a category as R is an equivalence relation,
    and a category's nerve satisfies them (`_nerve_rows`).
    """
    check_level_cap(level_cap)
    points = [x for b in pi.cod for x in pi.fiber(b)]
    at_x = {x: v for v, x in enumerate(points)}
    pairs = ((at_x[x], at_x[y]) for x in points for y in pi.fiber(pi(x)))
    at = {xy: k for k, xy in enumerate(pairs)}  # the arrows, in order
    src, tgt = [x for x, _ in at], [y for _, y in at]
    faces, degs, parent, last = _nerve_rows(
        src, tgt, [at[(v, v)] for v in range(len(points))],
        lambda g, f: at[(src[f], tgt[g])], level_cap)
    levels = [[(x,) for x in points]]
    for n in range(1, level_cap + 1):
        levels.append([levels[n - 1][q] + (points[tgt[g]],) for q, g in zip(parent[n], last[n])])
    return SimplicialObject(level_cap, levels, faces, degs, check=False)


def action_bar_object(action, level_cap=DEFAULT_LEVEL_CAP):
    """The bar construction of an action, the nerve of its quotient
    groupoid [X/G] (Segal, *Classifying spaces and spectral sequences*),
    with the arrows (g, x) by g then x.  The chain (g_1, x), (g_2, g_1 x),
    ... is (g_1 ... g_n, x), so level n lists G^n x X in the nerve's order,
    by (g_1, x, g_2, ..., g_n).  The simplicial identities are not checked
    (`validate` is the test oracle): a category's nerve satisfies them
    (`_nerve_rows`), and [X/G] is a category because the group table is a
    group, as FiniteGroup checks when it is built, and GroupAction checks
    that e fixes every point and that acting by h after g is acting by hg.
    """
    check_level_cap(level_cap)
    g, carrier = action.group, action.carrier
    size = len(carrier)
    at_g = {a: k for k, a in enumerate(g.elements)}
    at_x = {x: k for k, x in enumerate(carrier)}
    mul = [[at_g[g.mul[(b, a)]] for a in g.elements] for b in g.elements]  # b after a
    # the arrow (g, x) is at g * size + x, for the codes of g and x
    tgt = [at_x[action.act[(a, x)]] for a in g.elements for x in carrier]
    faces, degs, parent, last = _nerve_rows(
        [x for _ in g.elements for x in range(size)], tgt,
        [at_g[g.identity()] * size + x for x in range(size)],
        lambda b, a: mul[b // size][a // size] * size + a % size, level_cap)
    levels = [[((), x) for x in carrier]]
    for n in range(1, level_cap + 1):
        levels.append([(gs + (g.elements[a // size],), x)
                       for (gs, x), a in zip(map(levels[n - 1].__getitem__, parent[n]), last[n])])
    return SimplicialObject(level_cap, levels, faces, degs, check=False)


@dataclass
class GroupoidObjectReport:
    """`witness` is (n, S, S', "not injective" | "not surjective") for the
    first failing partition in scan order, () when the object holds.
    `checked` counts partitions: every partition up to `level_cap` when the
    object holds, and those scanned through the first failure otherwise."""

    holds: bool
    level_cap: int
    witness: tuple
    checked: int


def _gluing_partitions(cap):
    """Every (n, S, S', m) with 2 <= n <= cap and [n] = S u S', S n S' = {m},
    each unordered pair once (S < S'), in scan order: by n, by m, then by the
    split of the other vertices in product order."""
    for n in range(2, cap + 1):
        for m in range(n + 1):
            rest = [v for v in range(n + 1) if v != m]
            for bits in itertools.product((0, 1), repeat=len(rest)):
                a = [v for v, b in zip(rest, bits) if b == 0]
                bb = [v for v, b in zip(rest, bits) if b == 1]
                if not a or not bb:
                    continue
                s = tuple(sorted(a + [m]))
                s2 = tuple(sorted(bb + [m]))
                if s < s2:
                    yield n, s, s2, m


def _partition_count(cap):
    """len(list(_gluing_partitions(cap))): at level n, each of the n + 1
    overlaps m splits the other n vertices into two non-empty sides in
    2^n - 2 ways, each unordered pair counted twice."""
    return sum((n + 1) * (2 ** (n - 1) - 1) for n in range(2, cap + 1))


def _generating_partitions(cap):
    """The level-2 partitions, then the spine X_n = X_{0..n-1} x_{X_0} X_{n-1,n}."""
    yield from ((2, (0, 1), (0, 2), 0), (2, (0, 1), (1, 2), 1), (2, (0, 2), (1, 2), 2))
    for n in range(3, cap + 1):
        yield n, tuple(range(n)), (n - 1, n), n - 1


def _gluing_failure(so, n, s, s2, m):
    """None if restriction along S and S' identifies level n with the pairs
    agreeing at m, else "not injective" or "not surjective"."""
    r1, r2 = so.restriction_table(n, s), so.restriction_table(n, s2)
    pairs = set(zip(r1, r2))
    if len(pairs) != len(so.levels[n]):
        return "not injective"
    # onto the pairs agreeing at m: as many pairs as those, all agreeing
    at_m = so.restriction_table(len(s) - 1, (s.index(m),))
    at_m2 = so.restriction_table(len(s2) - 1, (s2.index(m),))
    over = Counter(at_m2)
    agreeing = sum(k * over[v] for v, k in Counter(at_m).items())
    if len(pairs) != agreeing or _then(r1, at_m) != _then(r2, at_m2):
        return "not surjective"
    return None


def is_groupoid_object(so, level_cap=None):
    """Unordered two-piece gluing at every level: for each partition of [n]
    into S and S' overlapping in one point m, restriction must identify the
    n-simplices with the pairs agreeing at m.  Needs at least three levels
    to say anything; truncations below that are rejected.

    Only cap + 1 partitions are checked unless one fails: the three at
    level 2 and the spine (0..n-1 | n-1, n) at each level n >= 3.  On an
    object satisfying the simplicial identities, as every object built with
    its check has, they imply all the others (Segal, *Classifying spaces
    and spectral sequences*; Goerss-Jardine, *Simplicial Homotopy Theory*,
    I.1):
    - level 2 with m = 1 is Segal's condition, so X_1 => X_0 composes by
      d_1 of the 2-simplex on a composable pair, with units s_0; m = 0 and
      m = 2 give every arrow a left and a right inverse;
    - surjectivity at n = 3 gives associativity: the 3-simplex on the
      2-simplex of (f, g) and the edge h has d_1 and d_2 reading h(gf)
      and (hg)f off its one edge 03;
    - by induction on the spine, the map sending an n-simplex to its
      string of edges 01, ..., n-1 n is a levelwise bijection onto the
      nerve of that groupoid, and it commutes with faces (inner faces
      compose, by Segal's condition on the 2-simplex i-1, i, i+1) and
      degeneracies (insert units);
    - a groupoid nerve passes every partition: an n-simplex is its vertex
      m with the arrows from m to every other vertex, which the two sides
      give independently.
    The level-2 checks overlap: Segal's condition follows from the spine at
    n = 3 (x is d_1 of s_1 x, whose spine pieces are s_1 d_2 x and d_0 x),
    and in a category either inverse condition gives the other, so
    dropping any one of the three changes no verdict.
    When a generator fails, the full scan runs in its order to name the
    first failing partition, and `checked` counts the partitions it read.
    """
    if level_cap is not None:
        check_level_cap(level_cap)
    cap = so.level_cap if level_cap is None else min(level_cap, so.level_cap)
    if cap < 3:
        raise InputError("groupoid-object check needs level_cap >= 3")
    if all(_gluing_failure(so, *p) is None for p in _generating_partitions(cap)):
        return GroupoidObjectReport(True, cap, (), _partition_count(cap))
    # the failing generator is one of these partitions, so the scan returns
    for checked, (n, s, s2, m) in enumerate(_gluing_partitions(cap), 1):
        failure = _gluing_failure(so, n, s, s2, m)
        if failure:
            return GroupoidObjectReport(False, cap, (n, s, s2, failure), checked)


# -- torsors ----------------------------------------------------------------------


@dataclass
class TorsorReport:
    pi_surjective: bool
    act_pr_bijective: bool
    is_torsor: bool
    trivializable: bool
    section: dict


def check_torsor(action):
    """Is the anchored action a torsor over its base, and is it trivializable?

    Torsor: the anchor is surjective and (act, pr): G x X -> X x_B X is a
    bijection.  Trivializable: some section s of the anchor induces a
    bijection G x B -> X, (g, b) |-> g.s(b).  Whether one does is decided
    on one section, the least point of each fibre, which is returned when
    it does.  Any section decides it: the action keeps fibres, so s
    induces a bijection exactly when each g |-> g.s(b) maps G one to one
    onto the fibre of b; if s does, any other section has s'(b) = g_0.s(b),
    and g |-> g g_0.s(b) is again one to one onto that fibre.
    """
    if action.base is None:
        raise InputError("torsor check needs an anchored action")
    b_set, pi = action.base
    elements, carrier = action.group.elements, action.carrier
    fibers = {b: tuple(x for x in carrier if pi[x] == b) for b in b_set}
    surjective = all(fibers.values())
    pairs = [(action.act[(g, x)], x) for g in elements for x in carrier]
    target = {(x1, x2) for fib in fibers.values() for x1 in fib for x2 in fib}
    bijective = len(pairs) == len(set(pairs)) and set(pairs) == target
    section = {b: fib[0] for b, fib in fibers.items()} if surjective else {}
    image = [action.act[(g, x)] for g in elements for x in section.values()]
    trivializable = surjective and len(image) == len(set(image)) == len(carrier)
    return TorsorReport(surjective, bijective, surjective and bijective, trivializable,
                        section if trivializable else {})


@dataclass
class ComparisonReport:
    commutes: bool
    levelwise_bijective: dict
    is_iso: bool


def torsor_comparison(action, level_cap=DEFAULT_LEVEL_CAP):
    """The canonical map from the bar construction to the Cech nerve of the
    anchor: (g_1 ... g_n, x) |-> (x, g_1 x, g_2 g_1 x, ...).  Reports whether
    it commutes with all structure maps and is a levelwise bijection.

    It is the nerve of the functor [X/G] -> [E/R] that fixes the points and
    sends (g, x) to (x, g.x), so it commutes, and neither object is built.
    It is bijective at level 0, and at a level n >= 1 exactly when the
    functor is bijective on arrows, that is when (act, pr): G x X ->
    X x_B X is: a chain is its string of arrows, and where (g, x) and
    (g', x) meet or (x, y) is missed, so do (g, e, ..., e, x) and
    (g', e, ..., e, x), or (x, y, ..., y)."""
    if action.base is None:
        raise InputError("comparison needs an anchored action")
    check_level_cap(level_cap)
    pairs = {(x, action.act[(g, x)]) for g in action.group.elements for x in action.carrier}
    fibres = Counter(action.base[1].values()).values()
    onto = len(pairs) == action.group.order() * len(action.carrier) == sum(k * k for k in fibres)
    levelwise = {n: n == 0 or onto for n in range(level_cap + 1)}
    return ComparisonReport(True, levelwise, all(levelwise.values()))
