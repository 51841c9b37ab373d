"""Simplex calculus: normal forms, standard simplices, maps, products."""

import contextlib
import itertools
import math
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornfill import io
from hornfill.cat import duskin_nerve, homotopy_category, mapping_space, nerve
from hornfill.corpus import all_categories, all_two_categories, bg_category, poset_category
from hornfill.errors import CapacityError, ConsistencyError, InputError, ValidationError
from hornfill.groupoid import cyclic_group
from hornfill.kan import classify, horn_fillers, horn_maps, horn_tuples, is_isomorphism_edge
from hornfill.sset import (
    LevelModel,
    SimplexRef,
    SimplicialObject,
    SimplicialSet,
    decreasing_words,
    enumerate_maps,
    insert_degeneracy,
    is_isomorphic,
    normalize,
    product,
    product_structure,
    standard_ref_of_vertices,
    standard_simplex,
    subcomplex_of_simplex,
    vertices_of_standard_ref,
)

from frozen_callables import (
    callables_of,
    duskin_callables,
    in_order_of,
    level_model,
    mapping_space_callables,
    mapping_space_cylinders,
    nerve_callables,
    product_callables,
    simplicial_object,
)


# -- independent oracle: operators acting on monotone vertex tuples ----------


def _word_on_vertices(word, verts):
    """Evaluate an operator word as a composite of monotone maps.

    d_i deletes position i, s_j repeats position j; last token acts first.
    """
    out = list(verts)
    for tok in reversed(list(word)):
        kind, idx = tok[0], int(tok[1:])
        if kind == "d":
            del out[idx]
        else:
            out.insert(idx, out[idx])
    return tuple(out)


def _random_word(rng, n, length):
    """A random valid operator word on an n-simplex, last token acting first."""
    word = []
    dim = n
    for _ in range(length):
        if dim >= 1 and rng.random() < 0.5:
            i = rng.randrange(dim + 1)
            word.append(f"d{i}")
            dim -= 1
        else:
            j = rng.randrange(dim + 1)
            word.append(f"s{j}")
            dim += 1
    word.reverse()
    return word


def test_insert_degeneracy_keeps_words_strictly_decreasing():
    assert insert_degeneracy((), 0) == (0,)
    assert insert_degeneracy((2, 0), 1) == (3, 1, 0)
    assert insert_degeneracy((1, 0), 3) == (3, 1, 0)
    for word in decreasing_words(3, 6):
        for j in range(7):
            out = insert_degeneracy(word, j)
            assert all(a > b for a, b in zip(out, out[1:]))
            assert len(out) == len(word) + 1


def test_simplex_ref_json_rejects_bad_degeneracy_words():
    # construction trusts its caller; everything read from json is checked
    assert SimplexRef.from_json({"gen": "x", "deg": [2, 0]}) == SimplexRef("x", (2, 0))
    with pytest.raises(InputError):
        SimplexRef.from_json({"gen": "x", "deg": [0, 2]})
    with pytest.raises(InputError):
        SimplexRef.from_json({"gen": "x", "deg": [1, 1]})
    for bad in ([-1], ["0"], [1.5], [None], [True], [False], [2, True], 0, "0"):
        with pytest.raises(InputError):
            SimplexRef.from_json({"gen": "x", "deg": bad})
    for bad in ({"gen": 1, "deg": []}, {"gen": ["x"], "deg": [0]}, ["x", []], 1, None):
        with pytest.raises(InputError):
            SimplexRef.from_json(bad)


def test_standard_simplex_counts_match_binomials():
    for n in range(5):
        x = standard_simplex(n, dim_cap=4)
        for m in range(5):
            assert x.count(m) == math.comb(n + m + 1, m + 1)


def test_standard_simplex_dimension_guard():
    standard_simplex(6)
    with pytest.raises(CapacityError):
        standard_simplex(7)
    with pytest.raises(InputError):
        standard_simplex(3, dim_cap=2)


def test_normalize_matches_monotone_composite_oracle():
    rng = random.Random(20240811)
    for _ in range(500):
        n = rng.randrange(5)
        x = standard_simplex(n, dim_cap=5)
        top = "".join(str(v) for v in range(n + 1))
        word = _random_word(rng, n, rng.randrange(1, 9))
        ref = normalize(x, top, word)
        expected = _word_on_vertices(word, range(n + 1))
        assert vertices_of_standard_ref(x, ref) == expected
        assert standard_ref_of_vertices(expected) == ref


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_normalize_operator_identities(n, data):
    # s_j s_j = s_{j+1} s_j and d_j s_j = id = d_{j+1} s_j, on every simplex
    x = standard_simplex(n, dim_cap=5)
    top = "".join(str(v) for v in range(n + 1))
    word = data.draw(st.lists(st.sampled_from("ds"), min_size=0, max_size=4))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    prefix = _random_word(rng, n, len(word))
    base = normalize(x, top, prefix)
    m = len(vertices_of_standard_ref(x, base)) - 1
    j = data.draw(st.integers(0, m))
    assert x.degeneracy(x.degeneracy(base, j), j) == x.degeneracy(
        x.degeneracy(base, j), j + 1
    )
    assert x.face(x.degeneracy(base, j), j) == base
    assert x.face(x.degeneracy(base, j), j + 1) == base


def test_restrict_is_functorial_in_the_reindexing_map():
    x = standard_simplex(4, dim_cap=4)
    top = "01234"
    ref = SimplexRef(top)
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 5)
        alpha = tuple(sorted(rng.randrange(5) for _ in range(m + 1)))
        k = rng.randrange(1, m + 2)
        beta = tuple(sorted(rng.randrange(m + 1) for _ in range(k)))
        via = x.restrict(x.restrict(ref, alpha), beta)
        direct = x.restrict(ref, tuple(alpha[b] for b in beta))
        assert via == direct


def test_restrict_rejects_non_monotone_maps():
    x = standard_simplex(2)
    with pytest.raises(InputError):
        x.restrict(SimplexRef("012"), (1, 0))
    with pytest.raises(InputError):
        x.restrict(SimplexRef("012"), (0, 3))


def test_boundary_and_horn_generator_counts():
    bd = subcomplex_of_simplex(2, "boundary")
    assert [len(bd.generators(n)) for n in range(3)] == [3, 3, 0]
    horn = subcomplex_of_simplex(2, "horn", k=1)
    assert [len(horn.generators(n)) for n in range(3)] == [3, 2, 0]
    # horn of dimension n has all faces except the k-th
    for n in (2, 3):
        for k in range(n + 1):
            h = subcomplex_of_simplex(n, "horn", k=k)
            h.table().validate()
            missing = "".join(str(v) for v in range(n + 1) if v != k)
            assert missing not in h.generators(n - 1)


def test_face_identities_hold_on_every_corpus_simplex():
    x = standard_simplex(3, dim_cap=4)
    for n in range(2, 5):
        for ref in x.simplices(n):
            for j in range(1, n + 1):
                for i in range(j):
                    assert x.face(x.face(ref, j), i) == x.face(x.face(ref, i), j - 1)


def test_enumerate_maps_counts_into_standard_targets():
    d1 = standard_simplex(1, dim_cap=2)
    d2 = standard_simplex(2, dim_cap=2)
    # maps Delta^1 -> Delta^2 are the 1-simplices of Delta^2, and dually
    assert len(enumerate_maps(d1, d2)) == d2.count(1)
    assert len(enumerate_maps(d2, d1)) == d1.count(2)
    fixed = {"0": SimplexRef("0"), "1": SimplexRef("0")}
    pinned = enumerate_maps(d1, d2, fixed=fixed)
    assert len(pinned) == 1 and pinned[0].assignment["01"] == SimplexRef("0", (0,))


def test_inconsistent_face_data_raises_not_asserts():
    # an edge whose face names no generator is never ready to be mapped
    broken = SimplicialSet(
        1, {0: ["a"], 1: ["e"]}, {"e": (SimplexRef("a"), SimplexRef("zz"))}, check=False
    )
    with pytest.raises(ConsistencyError):
        enumerate_maps(broken, standard_simplex(1, dim_cap=1))
    # s_0 d_0 recovers both the 1- and the 2-simplex, so stripping
    # degeneracies would give the word s_0 s_0, which is not in normal form
    face = lambda n, i, x: "v" if n == 1 else "e"
    deg = lambda n, i, x: "e" if n == 0 else ("t" if i == 0 else "u")
    with pytest.raises(ConsistencyError):
        level_model(2, [["v"], ["e"], ["t", "u"]], face, deg, namer=lambda n, x: x, check=False)


def test_simplicial_map_validation_checks_faces():
    d1 = standard_simplex(1, dim_cap=2)
    d2 = standard_simplex(2, dim_cap=2)
    from hornfill.sset import SimplicialMap

    with pytest.raises(ValidationError):
        SimplicialMap(
            d1,
            d2,
            {"0": SimplexRef("0"), "1": SimplexRef("2"), "01": SimplexRef("12")},
        )


def test_product_of_intervals_has_the_square_census():
    d1 = standard_simplex(1, dim_cap=3)
    structure = product_structure(d1, d1)
    prod = structure.sset
    assert [len(prod.generators(n)) for n in range(3)] == [4, 5, 2]
    for n in range(4):
        assert prod.count(n) == d1.count(n) ** 2
    # the pairing is a bijection on generators
    for g in prod.all_generators():
        rx, ry = structure.pair_of_gen(g)
        n = prod.gen_dim[g]
        assert structure.model.ref_of[(n, (rx, ry))] == SimplexRef(g)


def test_product_counts_match_on_mixed_factors():
    d2 = standard_simplex(2, dim_cap=3)
    d1 = standard_simplex(1, dim_cap=3)
    prod = product(d2, d1)
    for n in range(4):
        assert prod.count(n) == d2.count(n) * d1.count(n)


def test_is_isomorphic_finds_relabelings_and_respects_orientation():
    horn = subcomplex_of_simplex(2, "horn", k=1, dim_cap=1)
    relabeled = SimplicialSet(
        1,
        {0: ["p", "q", "r"], 1: ["pq", "qr"]},
        {
            "pq": [SimplexRef("q"), SimplexRef("p")],
            "qr": [SimplexRef("r"), SimplexRef("q")],
        },
    )
    assert is_isomorphic(horn, relabeled) is not None
    # the three 2-horns are pairwise non-isomorphic: out-star, path, in-star
    horns = [subcomplex_of_simplex(2, "horn", k=k, dim_cap=1) for k in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert is_isomorphic(horns[i], horns[j]) is None
    assert is_isomorphic(horn, subcomplex_of_simplex(2, "boundary", dim_cap=1)) is None


def test_isomorphism_budget_reports_generators_matched():
    x = nerve(bg_category(cyclic_group(3)), dim_cap=2).sset
    for budget in (1, 4):
        with pytest.raises(CapacityError) as info:
            is_isomorphic(x, x, budget=budget)
        assert info.value.partial == budget


def test_face_list_of_an_unknown_generator_is_rejected():
    with pytest.raises(ValidationError, match="unknown generator 'ghost'"):
        SimplicialSet(1, {0: ["v"]}, {"ghost": (SimplexRef("v"), SimplexRef("v"))})


def test_validate_catches_inconsistent_faces():
    with pytest.raises(ValidationError):
        SimplicialSet(
            1,
            {0: ["a"], 1: ["e"]},
            {"e": [SimplexRef("a"), SimplexRef("b")]},
        )


def test_simplex_ref_json_round_trip():
    for ref in (SimplexRef("01"), SimplexRef("2", (1, 0)), SimplexRef("013", (2,))):
        assert SimplexRef.from_json(ref.to_json()) == ref
    with pytest.raises(InputError):
        SimplexRef.from_json({"gen": "x", "degs": [0, 2]})


# -- level models against the callable-based strip they replaced ---------------


def _oracle_level_model(dim_cap, levels, face, deg, namer):
    """(sset, ref_of, elem_of_gen) found by calling face/deg again and again."""
    levels = [tuple(levels[n]) for n in range(dim_cap + 1)]

    def degenerate_index(n, x):
        for i in range(n - 1, -1, -1):
            if deg(n - 1, i, face(n, i, x)) == x:
                return i
        return None

    generators, names = {}, {}
    for n in range(dim_cap + 1):
        for x in levels[n]:
            if n == 0 or degenerate_index(n, x) is None:
                name = namer(n, x)
                assert name not in names
                names[name] = (n, x)
                generators.setdefault(n, []).append(name)
    gen_of_elem = {v: g for g, v in names.items()}

    def normal_form(n, x):
        word = []
        while n > 0:
            i = degenerate_index(n, x)
            if i is None:
                break
            word.append(i)
            x = face(n, i, x)
            n -= 1
        if any(a <= b for a, b in zip(word, word[1:])):
            raise ConsistencyError("strip order broke normal form")
        return SimplexRef(gen_of_elem[(n, x)], tuple(word))

    ref_of = {(n, x): normal_form(n, x) for n in range(dim_cap + 1) for x in levels[n]}
    faces = {
        name: tuple(ref_of[(n - 1, face(n, i, x))] for i in range(n + 1))
        for name, (n, x) in names.items()
        if n >= 1
    }
    elem_of_gen = {name: x for name, (n, x) in names.items()}
    return SimplicialSet(dim_cap, generators, faces), ref_of, elem_of_gen


@contextlib.contextmanager
def _recorded_level_models():
    """Record every LevelModel built, with the levels and rows it was given,
    in the order given, and callables that read them."""
    built = []
    init = LevelModel.__init__

    def record(self, dim_cap, levels, faces, degs, namer, check=True):
        init(self, dim_cap, levels, faces, degs, namer, check)
        levels = [tuple(levels[n]) for n in range(dim_cap + 1)]
        built.append((self, (dim_cap, levels, *callables_of(levels, faces, degs), namer),
                      (faces, degs)))

    LevelModel.__init__ = record
    try:
        yield built
    finally:
        LevelModel.__init__ = init


def _level_model_sources():
    for c in all_categories().values():
        yield lambda c=c: nerve(c, dim_cap=4)
    for c2 in all_two_categories().values():
        yield lambda c2=c2: duskin_nerve(c2, dim_cap=4)
    for a in range(3):
        for b in range(3):
            yield lambda a=a, b=b: product_structure(
                standard_simplex(a, dim_cap=3), standard_simplex(b, dim_cap=3)
            )
    yield lambda: product(subcomplex_of_simplex(2, "horn", k=1, dim_cap=2), standard_simplex(1))
    d1 = standard_simplex(1, dim_cap=2)
    for y in (nerve(bg_category(cyclic_group(2)), dim_cap=2).sset,
              nerve(poset_category(1), dim_cap=2).sset):
        yield lambda y=y: mapping_space(d1, y, dim_cap=2)
        yield lambda y=y: mapping_space(d1, y, dim_cap=1, pin={"0": y.simplices(0)[0]})


def test_level_models_match_the_callable_strip():
    count = 0
    for build in _level_model_sources():
        with _recorded_level_models() as built:
            build()
        for model, args, _ in built:
            x, ref_of, elem_of_gen = _oracle_level_model(*args)
            assert model.sset == x
            assert model.ref_of == ref_of
            assert model.elem_of_gen == elem_of_gen
            count += 1
    # 22 nerves, 7 Duskin nerves, 10 products, 4 mapping spaces and their 10 cylinders
    assert count == 53


def _level_model_oracles():
    """For each of `_level_model_sources()`, the frozen callables of every
    LevelModel it builds, in the order built, as (dim_cap, levels, face, deg)."""
    for c in all_categories().values():
        yield [(4, *nerve_callables(c, 4)[:3])]
    for c2 in all_two_categories().values():
        yield [(4, *duskin_callables(c2, 4)[:3])]
    for a in range(3):
        for b in range(3):
            yield [(3, *product_callables(standard_simplex(a, dim_cap=3),
                                          standard_simplex(b, dim_cap=3))[:3])]
    horn = subcomplex_of_simplex(2, "horn", k=1, dim_cap=2)
    yield [(2, *product_callables(horn, standard_simplex(1))[:3])]
    d1 = standard_simplex(1, dim_cap=2)
    for y in (nerve(bg_category(cyclic_group(2)), dim_cap=2).sset,
              nerve(poset_category(1), dim_cap=2).sset):
        for cap, pin in ((2, None), (1, {"0": y.simplices(0)[0]})):
            cylinders = [(2, *product_callables(a, b)[:3])
                         for a, b in mapping_space_cylinders(d1, cap)]
            yield cylinders + [(cap, *mapping_space_callables(d1, y, dim_cap=cap, pin=pin)[:3])]


def test_level_model_rows_match_the_frozen_callables():
    # the levels and rows every producer hands its LevelModel, against
    # op_table run on the callables it used to hand over
    count = 0
    for build, oracles in zip(_level_model_sources(), _level_model_oracles()):
        with _recorded_level_models() as built:
            build()
        assert len(built) == len(oracles)
        for (model, (cap, levels, *_), (faces, degs)), oracle in zip(built, oracles):
            want = simplicial_object(*oracle, check=False)
            got = SimplicialObject(cap, levels, faces, degs, check=False)
            assert (got.levels, got.faces, got.degs) == (want.levels, want.faces, want.degs)
            # and the model holds them renumbered into its set's order
            assert (model.levels, model.faces, model.degs) == in_order_of(model, want)
            count += 1
    assert count == 53


# -- SimplexRef against the frozen dataclass it was ------------------------------


@dataclass(frozen=True, order=True)
class _DataclassRef:
    """SimplexRef as a frozen dataclass: the reference for hash, order, str."""

    gen: str
    degs: tuple = ()

    def __str__(self):
        if not self.degs:
            return self.gen
        return self.gen + "".join(f".s{j}" for j in self.degs)

    def to_json(self):
        if not self.degs:
            return self.gen
        return {"gen": self.gen, "deg": list(self.degs)}


def _reference_face(x, ref, i):
    """d_i in normal form, on _DataclassRef values."""
    degs = ref.degs
    pending = []
    for pos, j in enumerate(degs):
        if i < j:
            pending.append(j - 1)
        elif i == j or i == j + 1:
            return _DataclassRef(ref.gen, tuple(pending) + degs[pos + 1:])
        else:
            pending.append(j)
            i -= 1
    out = _DataclassRef(*x.gen_faces[ref.gen][i])
    for j in reversed(pending):
        out = _DataclassRef(out.gen, insert_degeneracy(out.degs, j))
    return out


def test_simplex_refs_hash_order_and_index_like_the_frozen_dataclass():
    for name, c in all_categories().items():
        x = nerve(c, dim_cap=4).sset
        for n in range(5):
            refs = x.simplices(n)
            old = [_DataclassRef(*r) for r in refs]
            assert [hash(r) for r in refs] == [hash(r) for r in old], name
            assert [str(r) for r in refs] == [str(r) for r in old], name
            assert [r.to_json() for r in refs] == [r.to_json() for r in old], name
            assert [_DataclassRef(*r) for r in sorted(refs)] == sorted(old), name
            assert [_DataclassRef(*r) for r in set(refs)] == list(set(old)), name
            for r in refs:
                back = SimplexRef.from_json(r.to_json())
                assert back == r and type(back) is SimplexRef
            if n == 0:
                continue
            index = {}
            for t in old:
                key = tuple(_reference_face(x, t, i) for i in range(n + 1))
                index.setdefault(key, []).append(t)
            below = x.simplices(n - 1)
            got = {
                tuple(_DataclassRef(*below[f]) for f in key): [_DataclassRef(*refs[t]) for t in ts]
                for key, ts in x.table(n).face_index(n).items()
            }
            assert list(got.items()) == list(index.items()), name


# -- validate against the generator loop it replaced -----------------------------


def _oracle_validate(x):
    """validate without the deep check, deriving every face afresh."""
    for g, d in x.gen_dim.items():
        if d == 0:
            if g in x.gen_faces:
                raise ValidationError(f"vertex {g!r} must not carry faces")
            continue
        if g not in x.gen_faces:
            raise ValidationError(f"generator {g!r} has no face list")
        fs = x.gen_faces[g]
        if len(fs) != d + 1:
            raise ValidationError(f"{g!r} has {len(fs)} faces, expected {d + 1}")
        for i, ref in enumerate(fs):
            if ref.gen not in x.gen_dim:
                raise ValidationError(f"face d_{i} of {g!r} hits unknown {ref.gen!r}")
            if any(a <= b for a, b in zip(ref.degs, ref.degs[1:])):
                raise ValidationError(f"face d_{i} of {g!r} not in normal form")
            if x.dim_of(ref) != d - 1:
                raise ValidationError(
                    f"face d_{i} of {g!r} has dimension {x.dim_of(ref)}, expected {d - 1}"
                )
            if ref.degs and ref.degs[0] > d - 2:
                raise ValidationError(f"face d_{i} of {g!r} has out-of-range word")
    for g, d in x.gen_dim.items():
        if d < 2:
            continue
        ref = SimplexRef(g)
        for j in range(d + 1):
            for i in range(j):
                lhs = x._face(x._face(ref, j), i)
                rhs = x._face(x._face(ref, i), j - 1)
                if lhs != rhs:
                    raise ValidationError(
                        f"d_{i} d_{j} != d_{j - 1} d_{i} on generator {g!r}"
                    )


_KINDS = re.compile("hits unknown|has dimension|!=")


def _verdict(check, x):
    try:
        check(x)
    except ValidationError as exc:
        return str(exc)
    return None


def _spread(seq, k):
    """k entries spread evenly over seq, or all of seq when it is shorter."""
    if len(seq) <= k:
        return list(seq)
    return [seq[s * len(seq) // k] for s in range(k)]


def test_validate_matches_the_generator_loop_on_single_face_mutations():
    sets = [nerve(c, dim_cap=4).sset for c in all_categories().values()]
    sets += [duskin_nerve(c2, dim_cap=4).sset for c2 in all_two_categories().values()]
    ghost = SimplexRef("ghost")
    seen = set()
    for x in sets:
        mutations = sum(
            len(x.generators(d)) * (d + 1) * (x.count(d - 1) + x.count(d) + 1)
            for d in range(1, x.dim_cap + 1)
        )
        # every mutation of the smaller sets; an even spread on the larger
        every = mutations <= 1000
        for d in range(1, x.dim_cap + 1):
            gens = x.generators(d) if every else _spread(x.generators(d), 2)
            below, level = x.simplices(d - 1), x.simplices(d)
            if not every:
                below, level = _spread(below, 2), _spread(level, 1)
            # one face two dimensions down, which a lower generator may have passed
            lower = _spread(x.simplices(d - 2), 1) if d >= 2 else []
            for g in gens:
                fs = x.gen_faces[g]
                for i in range(d + 1):
                    for r in (ghost, *lower, *below, *level):
                        x.gen_faces[g] = fs[:i] + (r,) + fs[i + 1:]
                        want = _verdict(_oracle_validate, x)
                        assert _verdict(SimplicialSet.validate, x) == want, (x, g, i, r)
                        seen.add(want and _KINDS.search(want).group())
                x.gen_faces[g] = fs
    assert seen == {None, "hits unknown", "has dimension", "!="}


# -- the level table against the SimplexRef routes it replaced -------------------


def _oracle_simplices(x, n):
    """simplices(n) by enumeration, without the level table."""
    return [
        SimplexRef(g, word)
        for m in range(n, -1, -1)
        for g in x.gens.get(m, ())
        for word in decreasing_words(n - m, n)
    ]


def _oracle_deep_validate(x):
    """The whole-table check that `validate(deep=True)` used to add: the
    generator loop, then a throwaway table built through the calculus and
    checked on every simplicial identity."""
    _oracle_validate(x)
    simplicial_object(
        x.dim_cap,
        [_oracle_simplices(x, n) for n in range(x.dim_cap + 1)],
        lambda n, i, t: x._face(t, i),
        lambda n, j, t: x.degeneracy(t, j),
    )


class _OracleLevelModel:
    """LevelModel's check as it was: the callable strip, the set's shallow
    validate, then every face and degeneracy of every element cross-checked
    by the normal-form calculus."""

    def __init__(self, dim_cap, levels, face, deg, namer):
        simplicial_object(dim_cap, levels, face, deg, check=False)
        self.sset, ref_of, _ = _oracle_level_model(dim_cap, levels, face, deg, namer)
        for n in range(1, dim_cap + 1):
            for i in range(n + 1):
                for x in levels[n]:
                    if ref_of[(n - 1, face(n, i, x))] != self.sset._face(ref_of[(n, x)], i):
                        raise ValidationError(
                            f"levelwise face disagrees with calculus at level {n}, d_{i}"
                        )
        for n in range(dim_cap):
            for i in range(n + 1):
                for x in levels[n]:
                    if ref_of[(n + 1, deg(n, i, x))] != self.sset.degeneracy(ref_of[(n, x)], i):
                        raise ValidationError(
                            f"levelwise degeneracy disagrees with calculus at level {n}, s_{i}"
                        )


def _outcome(build):
    try:
        build()
    except (ValidationError, ConsistencyError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _corpus_sets(cap):
    sets = [nerve(c, dim_cap=cap).sset for c in all_categories().values()]
    return sets + [duskin_nerve(c2, dim_cap=cap).sset for c2 in all_two_categories().values()]


def _single_face_mutants(x):
    """x unchecked, then with every face of one generator per dimension
    sent to an unknown generator and to simplices of dimension d - 2,
    d - 1 and d."""
    ghost = SimplexRef("ghost")
    gens = {d: x.generators(d) for d in range(x.dim_cap + 1)}
    mutants = [dict(x.gen_faces)]
    for d in range(1, x.dim_cap + 1):
        lower = _spread(x.simplices(d - 2), 1) if d >= 2 else []
        for g in _spread(x.generators(d), 1):
            fs = x.gen_faces[g]
            for i in range(d + 1):
                for r in (ghost, *lower, x.simplices(d - 1)[-1], x.simplices(d)[0]):
                    mutants.append({**x.gen_faces, g: fs[:i] + (r,) + fs[i + 1:]})
    return [SimplicialSet(x.dim_cap, gens, faces, check=False) for faces in mutants]


def test_validate_matches_the_whole_table_check_on_single_face_mutations():
    # The generator check is the only validation of a presented set: no
    # mutant that passes it may break an identity anywhere in its table.
    seen = set()
    for x in _corpus_sets(4):
        for y in _single_face_mutants(x):
            want = _outcome(lambda: _oracle_deep_validate(y))
            assert _outcome(y.validate) == want, (x, want)
            seen.add(want and _KINDS.search(want).group())
    assert seen == {None, "hits unknown", "has dimension", "!="}


def test_counts_are_the_sizes_of_the_levels():
    for x in _corpus_sets(4):
        sizes = [len(x.simplices(n)) for n in range(5)]
        assert [x.count(n) for n in range(5)] == sizes, x
        # a loaded set is counted on the levels that loading built
        y = io.sset_from_json(io.sset_to_json(x))
        built = y._level_table.level_cap
        assert [y.count(n) for n in range(5)] == sizes, x
        assert y._level_table.level_cap == built
        assert [len(y.simplices(n)) for n in range(5)] == sizes, x


def test_every_loadable_single_face_mutant_builds_its_whole_table():
    # counting a loaded set leaves the levels above its top generator
    # dimension unbuilt; those levels must build for every set that loads
    loaded = refused = 0
    for x in _corpus_sets(4):
        for y in _single_face_mutants(x):
            try:
                z = io.sset_from_json(io.sset_to_json(y))
            except (InputError, ValidationError):
                refused += 1
                continue
            loaded += 1
            z.table(z.dim_cap)
            assert [z.count(n) for n in range(5)] == [len(z.simplices(n)) for n in range(5)]
    assert loaded and refused


def test_counts_outside_the_cap_are_input_errors():
    x = standard_simplex(2, dim_cap=4)
    for n in (-1, 5):
        with pytest.raises(InputError, match=rf"^dimension {n} outside \[0, 4\]$"):
            x.count(n)


def _moved(op, n, i, x, y):
    """op with its (n, i, x) entry sent to y."""
    return lambda m, j, z: y if (m, j, z) == (n, i, x) else op(m, j, z)


_IDENTITY = re.compile(
    r"ValidationError: ([ds])_\d+ ([ds])_\d+ = (id|[ds]_\d+ [ds]_\d+) fails at level \d+ on "
)


def test_level_model_checks_match_the_calculus_cross_check_on_single_mutations():
    seen = set()
    with _recorded_level_models() as built:
        _corpus_sets(4)
    for model, (cap, levels, face, deg, namer), _ in built:
        # one face entry at each of the top two levels and one degeneracy
        # entry into the top level, each sent to another element
        for kind, n in (("d", cap), ("d", cap - 1), ("s", cap - 1)):
            op = face if kind == "d" else deg
            x, i = _spread(levels[n], 2)[-1], n // 2
            into = levels[n - 1 if kind == "d" else n + 1]
            y = next((z for z in reversed(into) if z != op(n, i, x)), None)
            if y is None:
                continue
            moved = _moved(op, n, i, x, y)
            f, s = (moved, deg) if kind == "d" else (face, moved)
            want = _outcome(lambda: _OracleLevelModel(cap, levels, f, s, namer))
            got = _outcome(lambda: level_model(cap, levels, f, s, namer))
            assert (got is None) == (want is None), (got, want)
            if got is not None:
                match = _IDENTITY.match(got)
                assert match, got
                seen.add(match.group(1) + match.group(2))
            # unchecked, tables that present no set are still refused
            unchecked = _outcome(lambda: level_model(cap, levels, f, s, namer, check=False))
            assert unchecked is None or re.fullmatch(
                r"ConsistencyError: level \d+ is not in bijection with its normal forms", unchecked
            ), unchecked
            seen.add(unchecked and "bijection")
    # face identities and identities with a degeneracy both fail, and some
    # unchecked builds are refused
    assert {"dd", "bijection"} <= seen and seen & {"ds", "ss"}, seen


def test_level_model_refuses_a_broken_strip_order():
    # s_0 s_0 v and s_1 s_0 v differ, so A = s_0 u strips to the word (0, 0),
    # which is no normal form, while A' and the degeneracies of w give all
    # three normal forms of level 2: four elements for three simplices
    faces = {"u": "vv", "w": "vv", "A": "uuu", "A'": "uuu", "B": "www", "C": "www"}
    degs = {"v": ["u"], "u": ["A", "A'"], "w": ["B", "C"]}
    levels = [["v"], ["u", "w"], ["A", "A'", "B", "C"]]
    build = lambda check: level_model(
        2, levels, lambda n, i, x: faces[x][i], lambda n, i, x: degs[x][i],
        lambda n, x: x, check=check,
    )
    with pytest.raises(ConsistencyError, match="^level 2 is not in bijection"):
        build(False)
    with pytest.raises(ValidationError, match="^s_0 s_0 = s_1 s_0 fails at level 0 on 'v'$"):
        build(True)


def test_level_models_hand_their_set_the_calculus_table():
    # the set's table is the model's own, renumbered; the calculus builds
    # the same table afresh from the set's JSON.  No calculus and no
    # generator validation runs on a model's set, built or read.
    calls = []
    names = ("_face", "degeneracy", "validate")
    plain = {name: getattr(SimplicialSet, name) for name in names}

    def counted(name):
        def call(self, *args, **kwargs):
            calls.append(self)
            return plain[name](self, *args, **kwargs)
        return call

    count = 0
    for build in _level_model_sources():
        with _recorded_level_models() as built:
            for name in names:
                setattr(SimplicialSet, name, counted(name))
            try:
                build()
                tables = [model.sset.table() for model, _, _ in built]
            finally:
                for name in names:
                    setattr(SimplicialSet, name, plain[name])
        for (model, _, _), got in zip(built, tables):
            assert not any(y is model.sset for y in calls), model.sset
            want = io.sset_from_json(io.sset_to_json(model.sset)).table()
            assert (got.levels, got.faces, got.degs) == (want.levels, want.faces, want.degs)
            count += 1
        calls.clear()
    assert count == 53


def test_each_face_is_derived_once():
    calls = []
    face = SimplicialSet._face

    def counted(self, ref, i):
        calls.append((self, ref, i))
        return face(self, ref, i)

    sources = _corpus_sets(3)
    SimplicialSet._face = counted
    try:
        # read back from JSON: loading checks each set on the levels it
        # builds, and derives no face through the calculus
        sets = [io.sset_from_json(io.sset_to_json(x)) for x in sources]
        assert not calls
        for x in sets:
            table = x.table()
            # the table derives each face once, from the calculus on the
            # words of a block, so `_face` runs for no single simplex; every
            # row is the calculus's face of each simplex of its level
            assert not any(y is x for y, _, _ in calls), x
            for n in range(1, x.dim_cap + 1):
                for i in range(n + 1):
                    assert table.faces[n][i] == [
                        table.position[n - 1][face(x, t, i)] for t in table.levels[n]
                    ]
            table.validate()
            classify(x)
            for n in range(1, x.dim_cap + 1):
                for k in range(n + 1):
                    horn_tuples(x, n, k)
                    maps = horn_maps(x, n, k)
                    for m in maps[:3]:
                        horn_fillers(x, n, k, m)
                    x.filler_index(n, k)
                table.face_index(n)
            with contextlib.suppress(InputError, ConsistencyError):
                homotopy_category(x)  # refuses sets that are not weak Kan
            for edge in x.simplices(1)[:3]:
                is_isomorphism_edge(x, edge, check_homotopy_category=False)
            for n in range(x.dim_cap + 1):
                for ref in x.simplices(n)[:5]:
                    for m in range(n + 1):
                        for alpha in itertools.combinations(range(n + 1), m + 1):
                            x.restrict(ref, alpha)
            assert not any(y is x for y, _, _ in calls), x
    finally:
        SimplicialSet._face = face
