"""One map search against the three searches it replaced.

`enumerate_maps`, `is_isomorphic` and `enumerate_functors` all run the
face-index search of `sset._map_search`.  The backtracking searches they
replaced are kept below verbatim, apart from their names, as the oracles,
together with the old calculus-based `SimplicialMap.validate`.  Both read a
face's image through `image_of`, which was `SimplicialMap.apply`.
"""

import contextlib
import re

import pytest

from hornfill import cat, cli, io, sset
from hornfill.cat import Functor, duskin_nerve, enumerate_functors, mapping_space, nerve
from hornfill.config import DEFAULT_BUDGET
from hornfill.corpus import all_categories, all_two_categories
from hornfill.errors import CapacityError, ConsistencyError, InputError, ValidationError
from hornfill.sset import (
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    enumerate_maps,
    is_isomorphic,
    product,
    standard_simplex,
    subcomplex_of_simplex,
)

from frozen_callables import image_of


# -- the oracles -------------------------------------------------------------------


def oracle_enumerate_maps(src, tgt, dim_cap=None, budget=DEFAULT_BUDGET, fixed=None):
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
    vertex_candidates = tgt.simplices(0)
    table = tgt.table(cap)

    def candidates(g):
        d = src.gen_dim[g]
        if d == 0:
            return vertex_candidates
        at, level = table.position[d - 1], table.levels[d]
        key = tuple(at.get(assignment[f.gen] if not f.degs else image_of(assignment, tgt, f))
                    for f in src.gen_faces[g])
        return tuple(level[p] for p in table.face_index(d).get(key, ()))

    def ready(g):
        if src.gen_dim[g] == 0:
            return True
        return all(f.gen in assignment for f in src.gen_faces[g])

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


def oracle_is_isomorphic(a, b, budget=DEFAULT_BUDGET):
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
    table = b.table()

    def images(g):
        d = a.gen_dim[g]
        if d == 0:
            return [h for h in b.generators(0) if h not in used]
        at, level = table.position[d - 1], table.levels[d]
        key = tuple(at.get(SimplexRef(phi[f.gen], f.degs)) for f in a.gen_faces[g])
        found = (level[p] for p in table.face_index(d).get(key, ()))
        return [t.gen for t in found if not t.degs and t.gen not in used]

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


def oracle_enumerate_functors(c, d, budget=DEFAULT_BUDGET):
    """All functors c -> d, ordered by image tuples; backtracking with
    composition pruning on already-assigned triples.  A CapacityError
    carries the number of functors found as partial."""
    objs = list(c.objects)
    mors = sorted(c.mor)
    results = []
    on_obj = {}
    on_mor = {}
    nodes = 0
    triples = [
        (g, f, gf)
        for (g, f), gf in sorted(c.compose_table.items())
    ]

    def assign_morphisms(i):
        nonlocal nodes
        if i == len(mors):
            results.append((dict(on_obj), dict(on_mor)))
            return
        m = mors[i]
        s, t = c.mor[m]
        if m == c.identity.get(s) and s == t:
            cands = (d.identity[on_obj[s]],)
        else:
            cands = d.hom(on_obj[s], on_obj[t])
        for fm in cands:
            nodes += 1
            if nodes > budget:
                raise CapacityError(f"functor search exceeded budget {budget}",
                                    partial=len(results))
            on_mor[m] = fm
            ok = True
            for (g, f, gf) in triples:
                if g in on_mor and f in on_mor and gf in on_mor:
                    if d.compose_table[(on_mor[g], on_mor[f])] != on_mor[gf]:
                        ok = False
                        break
            if ok:
                assign_morphisms(i + 1)
            del on_mor[m]

    def assign_objects(i):
        if i == len(objs):
            assign_morphisms(0)
            return
        x = objs[i]
        for y in d.objects:
            on_obj[x] = y
            if all(
                not c.hom(a, b) or d.hom(on_obj[a], on_obj[b])
                for a in objs[: i + 1]
                for b in objs[: i + 1]
                if a in on_obj and b in on_obj
            ):
                assign_objects(i + 1)
            del on_obj[x]

    assign_objects(0)
    out = [Functor(c, d, o, m) for o, m in results]
    out.sort(key=lambda F: (tuple(F.on_objects[x] for x in objs), tuple(F.on_morphisms[m] for m in mors)))
    return out


def oracle_validate(self):
    """The old SimplicialMap.validate, on the normal-form calculus."""
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
                    want = image_of(self.assignment, self.tgt, self.src._face(SimplexRef(g), i))
                    got = self.tgt._face(img, i)
                    if want != got:
                        raise ValidationError(
                            f"map does not commute with d_{i} at {g!r}"
                        )


# -- the sets compared -------------------------------------------------------------


def _sources():
    """Standard simplices, boundaries, horns and the square, at cap 3."""
    out = {f"simplex{n}": standard_simplex(n, dim_cap=3) for n in range(4)}
    for n in range(1, 4):
        out[f"boundary{n}"] = subcomplex_of_simplex(n, "boundary", dim_cap=3)
    for n in (2, 3):
        for k in range(n + 1):
            out[f"horn{n}_{k}"] = subcomplex_of_simplex(n, "horn", k=k, dim_cap=3)
    d1 = standard_simplex(1, dim_cap=3)
    out["square"] = product(d1, d1)
    return out


def _nerves():
    """Every corpus nerve and Duskin nerve, at cap 3."""
    out = {f"N{name}": nerve(c, dim_cap=3).sset for name, c in all_categories().items()}
    for name, c2 in all_two_categories().items():
        out[f"D{name}"] = duskin_nerve(c2, dim_cap=3).sset
    return out


SOURCES = _sources()
NERVES = _nerves()


def _relabeled(x):
    """x with its generator ids renamed in reverse order, so that an
    isomorphism witness between x and the copy is not the identity."""
    ids = list(x.all_generators())
    new = dict(zip(ids, [f"r{i:03d}" for i in reversed(range(len(ids)))]))
    return SimplicialSet(
        x.dim_cap,
        {d: [new[g] for g in gs] for d, gs in x.gens.items()},
        {new[g]: [SimplexRef(new[f.gen], f.degs) for f in fs] for g, fs in x.gen_faces.items()},
    )


def _assignments(maps):
    return [(m.up_to, m.assignment) for m in maps]


# -- maps, mapping spaces, isomorphisms, functors ---------------------------------


def test_search_order_places_each_generator_after_its_faces():
    d2 = standard_simplex(2, dim_cap=3)
    assert sset._search_order(d2, 2) == ["0", "1", "01", "2", "02", "12", "012"]
    horn = subcomplex_of_simplex(3, "horn", k=1, dim_cap=3)
    assert sset._search_order(horn, 3) == [
        "0", "1", "01", "2", "02", "3", "03", "12", "012", "13", "013", "23", "123",
    ]
    # a triangle whose faces are all degenerate follows its vertex
    pinch = SimplicialSet(2, {0: ["v"], 1: ["e"], 2: ["t"]}, {
        "e": (SimplexRef("v"), SimplexRef("v")),
        "t": (SimplexRef("v", (0,)),) * 3,
    })
    assert sset._search_order(pinch, 2) == ["v", "t", "e"]


def test_map_lists_match_the_old_search():
    for sname, x in SOURCES.items():
        small = len(x.generators(0)) <= 3
        for yname, y in NERVES.items():
            pin = {x.generators(0)[0]: y.simplices(0)[-1]}
            for kwargs in [{}, {"fixed": pin}, {"dim_cap": 2}] + (
                [{"dim_cap": 0}, {"dim_cap": 1}, {"dim_cap": 1, "fixed": pin}] if small else []
            ):
                assert _assignments(enumerate_maps(x, y, **kwargs)) == _assignments(
                    oracle_enumerate_maps(x, y, **kwargs)
                ), (sname, yname, kwargs)


def test_pinned_edges_are_checked_against_their_faces():
    # the old search never checked a pinned edge whose vertices it chose
    # itself, and returned eight maps that do not commute with faces
    d1, d2 = standard_simplex(1, dim_cap=2), standard_simplex(2, dim_cap=2)
    pin = {"01": SimplexRef("12")}
    assert len(oracle_enumerate_maps(d1, d2, fixed=pin)) == 9
    (only,) = enumerate_maps(d1, d2, fixed=pin)
    assert only.assignment == {"0": SimplexRef("1"), "1": SimplexRef("2"), "01": SimplexRef("12")}
    with pytest.raises(InputError, match="not a simplex"):
        enumerate_maps(d1, d2, fixed={"01": SimplexRef("0", (3,))})


@contextlib.contextmanager
def _searching_with(search):
    """Run `mapping_space` (in `cat`) with the given map search."""
    saved = cat.enumerate_maps
    cat.enumerate_maps = search
    try:
        yield
    finally:
        cat.enumerate_maps = saved


def _mapping_space_data(x, y, **kwargs):
    m = mapping_space(x, y, **kwargs)
    levels = [[f.assignment for f in level] for level in m.levels]
    return levels, m.faces, m.degs, m.sset


def test_mapping_space_levels_match_the_old_search():
    # The level-2 cylinders (the 1-simplex times the 2-simplex) are compared
    # wherever the old search finishes each level within 5,000 trials; the
    # new one runs unbounded.
    d1 = standard_simplex(1, dim_cap=2)
    finished = 0
    for name, y in NERVES.items():
        runs = [{"dim_cap": 1}, {"dim_cap": 1, "pin": {"0": y.simplices(0)[-1]}}, {"dim_cap": 2}]
        for kwargs in runs:
            with _searching_with(oracle_enumerate_maps):
                try:
                    want = _mapping_space_data(d1, y, budget=5_000, **kwargs)
                except CapacityError:
                    assert kwargs["dim_cap"] == 2, name
                    continue
            assert _mapping_space_data(d1, y, **kwargs) == want, (name, kwargs)
            finished += kwargs["dim_cap"] == 2
    # all but the nerves of bc3, bc4, bv4, bc5, bs3, pair3 and the Duskin
    # nerves of two_group_c3 and split_c2_c2
    assert finished == 21


def test_isomorphism_verdicts_and_witnesses_match_the_old_search():
    sets = list(SOURCES.items()) + list(NERVES.items())
    sets += [(f"relabeled {name}", _relabeled(x)) for name, x in sets]
    found = 0
    for aname, a in sets:
        for bname, b in sets:
            got, want = is_isomorphic(a, b), oracle_is_isomorphic(a, b)
            assert (got and got.assignment) == (want and want.assignment), (aname, bname)
            found += got is not None
    assert found == 264  # 66 isomorphic ordered pairs, each four ways


def test_functor_lists_match_the_old_search():
    cats = all_categories()
    count = 0
    for cname, c in cats.items():
        for dname, d in cats.items():
            got = [(F.on_objects, F.on_morphisms) for F in enumerate_functors(c, d)]
            want = [(F.on_objects, F.on_morphisms) for F in oracle_enumerate_functors(c, d)]
            assert got == want, (cname, dname)
            count += len(got)
    assert count == 4480


def test_cat_maps_json_is_byte_identical(tmp_path, capsys):
    pairs = [(s, t) for s in ("simplex2", "horn2_1", "boundary2", "square")
             for t in ("Nbc3", "Nretraction", "Dwalking_cell", "Dtwo_group_c2")]
    paths = {}
    for name, x in {**SOURCES, **NERVES}.items():
        if any(name in pair for pair in pairs):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(io.dumps(io.sset_to_json(x)))
    for s, t in pairs:
        outputs = []
        for search in (oracle_enumerate_maps, enumerate_maps):
            saved, cli.enumerate_maps = cli.enumerate_maps, search
            try:
                assert cli.main(["cat", "maps", str(paths[s]), str(paths[t])]) == 0
            finally:
                cli.enumerate_maps = saved
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], (s, t)
        assert '"count"' in outputs[1]


@contextlib.contextmanager
def _calculus_calls():
    """Count calls of SimplicialSet._face and SimplicialSet.degeneracy."""
    calls = []
    saved = sset.SimplicialSet._face, sset.SimplicialSet.degeneracy

    def wrap(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    sset.SimplicialSet._face = wrap("_face", saved[0])
    sset.SimplicialSet.degeneracy = wrap("degeneracy", saved[1])
    try:
        yield calls
    finally:
        sset.SimplicialSet._face, sset.SimplicialSet.degeneracy = saved


def test_searches_never_run_the_calculus_on_built_tables():
    sets = list(SOURCES.values()) + list(NERVES.values())
    for x in sets:
        x.table()
    cats = all_categories()
    nerves = {name: nerve(c, dim_cap=2) for name, c in cats.items()}
    for res in nerves.values():
        res.sset.table()
    by_category = {id(c): nerves[name] for name, c in cats.items()}
    saved = cat.nerve
    cat.nerve = lambda c, dim_cap: by_category[id(c)]
    try:
        with _calculus_calls() as calls:
            for x in SOURCES.values():
                for y in NERVES.values():
                    enumerate_maps(x, y)
                    enumerate_maps(x, y, fixed={x.generators(0)[0]: y.simplices(0)[-1]})
            for a in sets:
                for b in sets:
                    is_isomorphic(a, b)
            for c in cats.values():
                for d in cats.values():
                    enumerate_functors(c, d)
    finally:
        cat.nerve = saved
    assert calls == []
    # the wrappers do see the calculus when the old routes run
    y = NERVES["Nbc2"]
    with _calculus_calls() as calls:
        oracle_validate(oracle_enumerate_maps(y, y)[0])
    assert set(calls) == {"_face", "degeneracy"}


def _maps_to_mutate():
    pairs = [(s, t) for s in ("simplex2", "horn2_0", "boundary2", "square")
             for t in ("Nposet2", "Nbc3", "Nretraction", "Dwalking_cell", "Dtwo_group_c2")]
    # nerves as sources have degenerate faces
    pairs += [("Nbc2", "Nbc2"), ("Nidempotent", "Nretraction"), ("Dtwo_group_c2", "Dtwo_group_c2")]
    sets = {**SOURCES, **NERVES}
    for sname, yname in pairs:
        x, y = sets[sname], sets[yname]
        for m in enumerate_maps(x, y)[:3]:
            yield x, y, m.assignment


def test_simplicial_map_validate_matches_the_old_validate():
    outcomes = set()
    for x, y, assignment in _maps_to_mutate():
        for g in x.all_generators():
            d = x.gen_dim[g]
            images = [*y.simplices(d)[:6], SimplexRef("ghost"), y.simplices(max(d - 1, 0))[0]]
            for img in images:
                mutated = {**assignment, g: img}
                results = []
                for check in (oracle_validate, SimplicialMap.validate):
                    try:
                        check(SimplicialMap(x, y, mutated, check=False))
                        results.append(None)
                    except ValidationError as exc:
                        results.append(str(exc))
                assert results[0] == results[1], (g, img)
                outcomes.add(results[1] and results[1].split(" ")[0])
            missing = {h: r for h, r in assignment.items() if h != g}
            with pytest.raises(ValidationError, match=re.escape(f"generator {g!r} has no image")):
                SimplicialMap(x, y, missing)
    assert outcomes == {None, "image", "map"}


def test_an_image_outside_the_truncated_target_is_rejected():
    d2, d1 = standard_simplex(2, dim_cap=2), standard_simplex(1, dim_cap=1)
    # s_1 s_0 of a vertex has dimension 2, above the target's cap; the
    # calculus alone would accept it
    collapse = {"0": SimplexRef("0"), "1": SimplexRef("0"), "2": SimplexRef("0"),
                "01": SimplexRef("0", (0,)), "02": SimplexRef("0", (0,)),
                "12": SimplexRef("0", (0,)), "012": SimplexRef("0", (1, 0))}
    oracle_validate(SimplicialMap(d2, d1, collapse, check=False))
    with pytest.raises(ValidationError, match="^image of '012' is not a simplex of Simp"):
        SimplicialMap(d2, d1, collapse)
    # s_1 of a vertex has dimension 1 but is not in normal form
    good = enumerate_maps(d2, NERVES["Nbc2"])[0].assignment
    with pytest.raises(ValidationError, match="^image of '01' is not a simplex of Simp"):
        SimplicialMap(d2, NERVES["Nbc2"], {**good, "01": SimplexRef("*", (1,))})
