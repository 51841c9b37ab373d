"""Horn-filling classification of truncated simplicial sets.

A map from the horn Lambda^n_k into X is the same thing as a tuple
(y_i), i != k, of (n-1)-simplices of X with d_i y_j = d_{j-1} y_i for
i < j (May, Simplicial Objects in Algebraic Topology, Def. 1.3): y_i is
the image of the horn face d_i, and the equations glue the faces along
their common (n-2)-faces.  Such compatible face tuples are enumerated by
`SimplicialObject.join` over the slots i != k of x's (n-1)-simplices,
choosing y_i in increasing i and looking each one up by the faces it
shares with the entries already chosen; the Duskin nerve builds its
levels >= 3 with the same join over every slot.  The
fillers of a horn map are the n-simplices whose face tuple with d_k
dropped is the map's tuple, read off an index of x's n-simplices that x
caches per (n, k).  The join and both indexes work on positions in x's
level table (`SimplicialSet.table`); simplices become `SimplexRef` values
only in what the public functions return.  The four classical
characterizations then read off existence/uniqueness patterns:

    weak Kan            inner horns fill
    Kan                 all horns fill
    nerve of category   inner horns fill uniquely
    nerve of groupoid   all horns fill uniquely

Horns in dimension 1 are a single vertex and always fill through a
degenerate edge, so they carry no information and are not inspected.
Everything is relative to the truncation: verdicts quantify over the
inspected range only, which the report records.
"""

import functools
from collections import Counter
from dataclasses import dataclass

from .config import DEFAULT_BUDGET
from .errors import CapacityError, ConsistencyError, InputError
from .sset import SimplicialMap, subcomplex_of_simplex


@functools.cache
def horn_generators(n, k):
    """The (n, k)-horn and its generator ids in (dimension, id) order.

    Built once per (n, k); every caller shares the returned horn.
    """
    horn = subcomplex_of_simplex(n, "horn", k=k, dim_cap=n - 1)
    return horn, tuple(g for d in range(n) for g in horn.generators(d))


@functools.cache
def _horn_charts(n, k):
    """Where each horn generator's image sits in a compatible face tuple.

    Slot s of a tuple holds the image of the horn face d_i, for i the s-th
    index other than k.  A generator lies in the face of the least such i
    it misses; its image is that slot restricted along the generator's
    vertex positions within the face.  One (slot, positions) pair per
    generator, in (dimension, id) order.
    """
    _, gen_ids = horn_generators(n, k)
    faces = [i for i in range(n + 1) if i != k]
    charts = []
    for g in gen_ids:
        verts = [int(c) for c in g]
        slot = next(s for s, i in enumerate(faces) if i not in verts)
        charts.append((slot, tuple(v - (v > faces[slot]) for v in verts)))
    return tuple(charts)


def _images(x, n, k):
    """Images of the horn generators, in (dimension, id) order, as a
    function of a compatible face tuple of positions."""
    table = x.table(n - 1)
    charts = [(slot, table.levels[len(alpha) - 1], table.restriction_table(n - 1, alpha))
              for slot, alpha in _horn_charts(n, k)]
    return lambda tup: tuple(level[row[tup[slot]]] for slot, level, row in charts)


def _horn_join(x, n, k, budget, spent=0, shapes_done=0):
    """Compatible face tuples of the (n, k)-horn in x, as positions in
    level n - 1, and the trials spent (`SimplicialObject.join`); past
    `budget` a CapacityError reports `shapes_done` horn shapes completed.
    """
    if n > x.dim_cap:
        raise InputError(f"horn dimension {n} above target cap {x.dim_cap}")
    horn_generators(n, k)  # rejects a bad n or k
    table = x.table(n)
    try:
        return table.join(n, [i for i in range(n + 1) if i != k], budget, spent)
    except CapacityError:
        raise CapacityError(
            f"horn census exceeded budget {budget}", partial=shapes_done
        ) from None


def horn_tuples(x, n, k, budget=DEFAULT_BUDGET):
    """All maps from the (n, k)-horn into x, as compatible face tuples.

    The tuple of a map lists the images of the horn faces d_i, i != k, in
    increasing i.  Raises CapacityError when more than `budget` join
    trials are spent.
    """
    tuples = _horn_join(x, n, k, budget)[0]
    level = x.simplices(n - 1)
    return [tuple(level[p] for p in t) for t in tuples]


def horn_maps(x, n, k, budget=DEFAULT_BUDGET):
    """All simplicial maps from the (n, k)-horn into x.

    Sorted by the images of the horn generators in (dimension, id) order.
    """
    tuples = _horn_join(x, n, k, budget)[0]
    horn, gen_ids = horn_generators(n, k)
    images = sorted(map(_images(x, n, k), tuples))
    return [
        SimplicialMap(horn, x, dict(zip(gen_ids, imgs)), up_to=n - 1, check=False)
        for imgs in images
    ]


def horn_fillers(x, n, k, horn_map):
    """The n-simplices of x extending the given horn map."""
    at = x.table(n).position[n - 1]
    key = tuple(
        at.get(horn_map.assignment["".join(str(v) for v in range(n + 1) if v != i)])
        for i in range(n + 1)
        if i != k
    )
    level = x.simplices(n)
    return tuple(level[p] for p in x.filler_index(n, k).get(key, ()))


def filler_profile(x, n, k, budget=DEFAULT_BUDGET):
    """{number of fillers: number of (n, k)-horn maps with that many}."""
    tuples = _horn_join(x, n, k, budget)[0]
    index = x.filler_index(n, k)
    return dict(Counter(len(index.get(t, ())) for t in tuples))


@dataclass
class HornVerdict:
    n: int
    k: int
    horn_count: int
    all_fill: bool
    all_unique: bool
    unfilled: int
    ambiguous: int
    no_filler_example: dict
    multi_filler_example: dict

    def to_json(self):
        return {
            "n": self.n,
            "k": self.k,
            "horns": self.horn_count,
            "all_fill": self.all_fill,
            "all_unique": self.all_unique,
            "unfilled": self.unfilled,
            "ambiguous": self.ambiguous,
            "no_filler_example": self.no_filler_example or None,
            "multi_filler_example": self.multi_filler_example or None,
        }


@dataclass
class KanReport:
    inspected_cap: int
    verdicts: list
    weak_kan: bool
    kan: bool
    nerve_of_category: bool
    nerve_of_groupoid: bool

    def verdict(self, n, k):
        for v in self.verdicts:
            if (v.n, v.k) == (n, k):
                return v
        raise InputError(f"no verdict for horn ({n}, {k})")

    def to_json(self):
        return {
            "inspected_cap": self.inspected_cap,
            "verdicts": [v.to_json() for v in self.verdicts],
            "weak_kan": self.weak_kan,
            "kan": self.kan,
            "nerve_of_category": self.nerve_of_category,
            "nerve_of_groupoid": self.nerve_of_groupoid,
        }


def _serialize_horn_map(gen_ids, images):
    return {g: str(ref) for g, ref in sorted(zip(gen_ids, images))}


def classify(x, dim_cap=None, budget=DEFAULT_BUDGET):
    """Full horn census of x up to the cap, with the four flags.

    One budget of join trials covers the whole census; a CapacityError
    carries the number of horn shapes completed before it ran out.  The
    example maps are the least unfilled and the least ambiguous horn map
    in the order of `horn_maps`.
    """
    cap = x.dim_cap if dim_cap is None else min(dim_cap, x.dim_cap)
    if cap < 2:
        raise InputError("horn classification needs dimension cap >= 2")
    verdicts = []
    spent = 0
    for n in range(2, cap + 1):
        for k in range(n + 1):
            tuples, spent = _horn_join(x, n, k, budget, spent, len(verdicts))
            index = x.filler_index(n, k)
            images_of = _images(x, n, k)
            unfilled = ambiguous = 0
            no_images = multi = None
            for t in tuples:
                fillers = index.get(t, ())
                if len(fillers) == 1:
                    continue
                images = images_of(t)
                if not fillers:
                    unfilled += 1
                    if no_images is None or images < no_images:
                        no_images = images
                else:
                    ambiguous += 1
                    if multi is None or images < multi[0]:
                        multi = (images, fillers)
            _, gen_ids = horn_generators(n, k)
            no_ex = _serialize_horn_map(gen_ids, no_images) if no_images else {}
            multi_ex = {}
            if multi:
                multi_ex = dict(
                    _serialize_horn_map(gen_ids, multi[0]),
                    fillers=[str(x.simplices(n)[p]) for p in multi[1]],
                )
            verdicts.append(
                HornVerdict(
                    n, k, len(tuples),
                    all_fill=(unfilled == 0),
                    all_unique=(unfilled == 0 and ambiguous == 0),
                    unfilled=unfilled,
                    ambiguous=ambiguous,
                    no_filler_example=no_ex,
                    multi_filler_example=multi_ex,
                )
            )
    inner = [v for v in verdicts if 0 < v.k < v.n]
    weak_kan = all(v.all_fill for v in inner)
    kan = all(v.all_fill for v in verdicts)
    nerve_of_category = all(v.all_unique for v in inner)
    nerve_of_groupoid = all(v.all_unique for v in verdicts)
    # the four flags sit in a fixed implication order; anything else means
    # the census above is internally broken
    if nerve_of_groupoid and not (nerve_of_category and kan):
        raise ConsistencyError("unique-all implies unique-inner and fill-all")
    if kan and not weak_kan:
        raise ConsistencyError("fill-all implies fill-inner")
    if nerve_of_category and not weak_kan:
        raise ConsistencyError("unique-inner implies fill-inner")
    return KanReport(cap, verdicts, weak_kan, kan, nerve_of_category, nerve_of_groupoid)


@dataclass
class IsoEdgeReport:
    is_isomorphism: bool
    inverse_witness: str
    inverse_in_homotopy_category: bool


def is_isomorphism_edge(x, edge, check_homotopy_category=True):
    """Is this edge invertible up to homotopy?

    Route one looks directly for an edge g with 2-simplices exhibiting both
    composites as degenerate edges.  Route two asks whether the edge's class
    is invertible in the homotopy category.  On a weak Kan complex the two
    must agree; any disagreement raises instead of picking a side.
    """
    table = x.table(2)
    tri = table.face_index(2)
    e = table.position[1].get(edge)
    if e is None:
        raise InputError(f"{edge} is not an edge")
    d0, d1 = table.faces[1]
    s0 = table.degs[0][0]
    src_v, tgt_v = d1[e], d0[e]
    witness = ""
    for g in range(len(d0)):
        if d1[g] != tgt_v or d0[g] != src_v:
            continue
        if (e, s0[tgt_v], g) in tri and (g, s0[src_v], e) in tri:
            witness = str(table.levels[1][g])
            break
    route_direct = bool(witness)
    route_homotopy = route_direct
    if check_homotopy_category:
        from .cat import homotopy_category

        h = homotopy_category(x)
        cls = h.class_of_edge[edge]
        route_homotopy = h.category.inverse(cls) is not None
        if route_direct != route_homotopy:
            raise ConsistencyError(
                f"direct witness search ({route_direct}) and homotopy category"
                f" ({route_homotopy}) disagree about {edge}"
            )
    return IsoEdgeReport(route_direct, witness, route_homotopy)
