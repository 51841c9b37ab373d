"""Finite groups, actions, groupoids, and simplicial objects in sets.

Conventions.  Group multiplication `mul[(g, h)]` is "g after h": acting by
h first and then by g equals acting by mul[(g, h)].  The quotient groupoid
of an action has a morphism (g, x): x -> g.x for every pair, composed by
(h, g.x) o (g, x) = (hg, x).  The bar-construction simplicial object has
level n = G^n x X with d_0 applying the first group element, inner d_i
merging adjacent ones, and d_n dropping the last; its comparison with the
Cech nerve of the anchor map is a levelwise bijection exactly on torsors.

All checks are exhaustive; cardinalities use exact rationals.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_BUDGET, DEFAULT_LEVEL_CAP
from .errors import CapacityError, InputError, ValidationError
from .cat import FiniteCategory, UnionFind, _within
from .sset import SimplicialObject, _then, check_level_cap


class FinMap:
    """A total map between explicit finite sets."""

    def __init__(self, dom, cod, table):
        self.dom = tuple(sorted(dom))
        self.cod = tuple(sorted(cod))
        self.table = dict(table)
        self.validate()

    def validate(self):
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
    def __init__(self, elements, mul, check=True):
        self.elements = tuple(sorted(elements))
        self.mul = dict(mul)
        self._identity = None
        self._inverse = {}
        self._cech = None  # descent's integer table, with its fibre censuses
        if check:
            self.validate()

    def validate(self):
        """Distinct elements, an identity, the table as a one-object
        category (closure, units, associativity), then inverses."""
        es = self.elements
        if len(set(es)) != len(es):
            raise ValidationError("duplicate group elements")
        one_object = FiniteCategory(
            ("*",), {a: ("*", "*") for a in es}, {"*": self.identity()}, self.mul,
            check=False,
        )
        _within("group table", one_object.validate)
        for a in es:
            self.inverse(a)

    def identity(self):
        if self._identity is None:
            for e in self.elements:
                if all(
                    self.mul.get((e, x)) == x and self.mul.get((x, e)) == x
                    for x in self.elements
                ):
                    self._identity = e
                    break
            else:
                raise ValidationError("no identity element")
        return self._identity

    def inverse(self, a):
        if a not in self._inverse:
            e = self.identity()
            for b in self.elements:
                if self.mul[(a, b)] == e and self.mul[(b, a)] == e:
                    self._inverse[a] = b
                    break
            else:
                raise ValidationError(f"no inverse for {a!r}")
        return self._inverse[a]

    def order(self):
        return len(self.elements)

    def element_order(self, a):
        e, x, n = self.identity(), a, 1
        while x != e:
            x = self.mul[(x, a)]
            n += 1
        return n

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


def groups_isomorphic(g, h, budget=DEFAULT_BUDGET):
    """An isomorphism as a dict, or None.  Exhaustive over generator images,
    pruned by element orders; every candidate is verified on the full table.
    A CapacityError carries the number of generator images fixed when the
    budget ran out as partial."""
    if g.order() != h.order():
        return None
    if sorted(map(g.element_order, g.elements)) != sorted(map(h.element_order, h.elements)):
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
        want = g.element_order(gens[i])
        for y in h.elements:
            if h.element_order(y) != want:
                continue
            nodes += 1
            if nodes > budget:
                raise CapacityError(f"group isomorphism search exceeded budget {budget}", partial=i)
            got = rec(i + 1, images + [y])
            if got is not None:
                return got
        return None

    return rec(0, [])


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
        els = self.hom(x, x)
        mul = {(b, a): self.compose_table[(b, a)] for b in els for a in els}
        return FiniteGroup(els, mul)

    def components(self):
        classes = UnionFind(self.objects)
        for (s, t) in self.mor.values():
            classes.union(s, t)
        comps = {}
        for x in self.objects:
            comps.setdefault(classes.find(x), []).append(x)
        return {rep: tuple(objs) for rep, objs in sorted(comps.items())}


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
    """Levelwise fiber powers of a finite map, with omit/repeat structure.

    Level n is one block per point of the base: the (n + 1)-tuples of its
    fibre in product order, so a tuple's place in its block is its code in
    base k, the fibre size.  A face drops a digit, a degeneracy repeats one.
    """
    check_level_cap(level_cap)
    fibres = [pi.fiber(b) for b in pi.cod]
    levels = [[x for fib in fibres for x in itertools.product(fib, repeat=n + 1)]
              for n in range(level_cap + 1)]
    # starts[n][b]: where the block of the b-th base point starts in level n
    starts = [list(itertools.accumulate((len(fib) ** (n + 1) for fib in fibres), initial=0))
              for n in range(level_cap + 2)]

    def rows(n, into, op):
        return [[start + op(c, k, w) for start, fib in zip(starts[into], fibres)
                 for k in (len(fib),) for w in (k ** (n - i),) for c in range(k ** (n + 1))]
                for i in range(n + 1)]

    # w is the weight of digit i
    faces = [()] + [rows(n, n - 1, lambda c, k, w: c // (w * k) * w + c % w)
                    for n in range(1, level_cap + 1)]
    degs = [rows(n, n + 1, lambda c, k, w: c // w * w * k + c // w % k * w + c % w)
            for n in range(level_cap)]
    return SimplicialObject(level_cap, levels, faces, degs)


def action_bar_object(action, level_cap=DEFAULT_LEVEL_CAP):
    """The bar construction of an action: level n is G^n x X.

    Level n lists (g_1 ... g_n, x) in product order, so an element sits at
    c * |X| + x, c the code of g_1 ... g_n in base |G|.  d_0 reads the action
    table, the inner faces the multiplication table, d_n drops the last
    digit and s_i inserts the identity digit.
    """
    check_level_cap(level_cap)
    g, carrier = action.group, action.carrier
    order, size = len(g.elements), len(carrier)
    at_g = {a: k for k, a in enumerate(g.elements)}
    at_x = {x: k for k, x in enumerate(carrier)}
    act = [[at_x[action.act[(a, x)]] for x in carrier] for a in g.elements]
    mul = [[at_g[g.mul[(b, a)]] for a in g.elements] for b in g.elements]  # b after a
    e = at_g[g.identity()]
    levels = [
        [(gs, x) for gs in itertools.product(g.elements, repeat=n) for x in carrier]
        for n in range(level_cap + 1)
    ]
    xs = range(size)

    def spread(row):
        """A row over the group codes, extended to every point of the carrier."""
        return [r * size + x for r in row for x in xs]

    def face_row(n, i):
        codes = range(order ** n)
        if i == 0:
            w = order ** (n - 1)
            return [c % w * size + y for c in codes for y in act[c // w]]
        if i == n:
            return spread([c // order for c in codes])
        # g_i (digit i - 1) and g_{i+1} (digit i, of weight w) merge into one digit
        w = order ** (n - 1 - i)
        return spread([
            c // (w * order * order) * w * order
            + mul[c // w % order][c // (w * order) % order] * w + c % w
            for c in codes
        ])

    def deg_row(n, i):
        w = order ** (n - i)
        return spread([c // w * w * order + e * w + c % w for c in range(order ** n)])

    faces = [()] + [[face_row(n, i) for i in range(n + 1)] for n in range(1, level_cap + 1)]
    degs = [[deg_row(n, i) for i in range(n + 1)] for n in range(level_cap)]
    return SimplicialObject(level_cap, levels, faces, degs)


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
    bijection.  Trivializable: some section of the anchor induces a bijection
    G x B -> X.  Both are decided by enumeration; the section is returned
    when one exists.
    """
    if action.base is None:
        raise InputError("torsor check needs an anchored action")
    b_set, pi = action.base
    fibers = {b: tuple(x for x in action.carrier if pi[x] == b) for b in b_set}
    surjective = all(fibers[b] for b in b_set)
    pairs = [
        (action.act[(g, x)], x)
        for g in action.group.elements
        for x in action.carrier
    ]
    target = {
        (x1, x2)
        for b in b_set
        for x1 in fibers[b]
        for x2 in fibers[b]
    }
    bijective = len(pairs) == len(set(pairs)) and set(pairs) == target
    is_torsor = surjective and bijective
    trivializable = False
    section = {}
    if all(fibers[b] for b in b_set):
        for choice in itertools.product(*(fibers[b] for b in b_set)):
            cand = dict(zip(b_set, choice))
            image = [
                action.act[(g, cand[b])] for g in action.group.elements for b in b_set
            ]
            if len(image) == len(set(image)) == len(action.carrier):
                trivializable = True
                section = cand
                break
    return TorsorReport(surjective, bijective, is_torsor, trivializable, section)


@dataclass
class ComparisonReport:
    commutes: bool
    levelwise_bijective: dict
    is_iso: bool


def torsor_comparison(action, level_cap=DEFAULT_LEVEL_CAP):
    """The canonical map from the bar construction to the Cech nerve of the
    anchor: (g_1 ... g_n, x) |-> (x, g_1 x, g_2 g_1 x, ...).  Reports whether
    it commutes with all structure maps and is a levelwise bijection.

    It commutes by construction, because the action is validated: the
    identity fixes every point (s_i inserts it where the Cech s_i repeats a
    point), the action is associative (an inner d_i multiplies where the
    Cech d_i drops the point between) and keeps each fibre (every image is
    a Cech element).  So only bijectivity is computed, and neither object
    is built: the bar levels are walked in product order, each element
    carrying the last point of its image and the image's code in its fibre
    block, in base |fibre|; its Cech position is the block start plus that
    code."""
    if action.base is None:
        raise InputError("comparison needs an anchored action")
    check_level_cap(level_cap)
    b_set, pi = action.base
    carrier, at_x = action.carrier, {x: k for k, x in enumerate(action.carrier)}
    fibres = [[at_x[x] for x in carrier if pi[x] == b] for b in b_set]
    block, digit, base = ([0] * len(carrier) for _ in range(3))
    for b, fib in enumerate(fibres):
        for d, x in enumerate(fib):
            block[x], digit[x], base[x] = b, d, len(fib)
    act = [[at_x[action.act[(g, x)]] for x in carrier] for g in action.group.elements]
    # (last point, code) of every element of level n, level 0 first
    level = [(x, digit[x]) for x in range(len(carrier))]
    levelwise = {}
    for n in range(level_cap + 1):
        if n:
            # (g_1 ... g_n, x) follows (g_1 ... g_{n-1}, x) for each g_n in turn
            chunks = [level[p:p + len(carrier)] for p in range(0, len(level), len(carrier))]
            level = [(g[y], c * base[y] + digit[g[y]]) for chunk in chunks for g in act
                     for y, c in chunk]
        starts = list(itertools.accumulate((len(fib) ** (n + 1) for fib in fibres), initial=0))
        positions = {starts[block[y]] + c for y, c in level}
        levelwise[n] = len(positions) == len(level) == starts[-1]
    return ComparisonReport(True, levelwise, all(levelwise.values()))
