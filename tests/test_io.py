"""Serialization round trips and loader validation."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornfill import io
from hornfill.cat import duskin_nerve, nerve
from hornfill.corpus import (
    all_actions,
    all_categories,
    all_small_groups,
    all_two_categories,
    cover_of_shape,
    cover_shapes,
)
from hornfill.errors import InputError
from hornfill.groupoid import GroupAction
from hornfill.sset import (
    SimplexRef,
    SimplicialSet,
    product,
    standard_simplex,
    subcomplex_of_simplex,
)


def _cycle(to_json, from_json, value):
    blob = io.dumps(to_json(value))
    again = io.dumps(to_json(from_json(json.loads(blob))))
    return blob, again


def test_dumps_is_deterministic_and_newline_terminated():
    blob = io.dumps({"b": 1, "a": [2, 3]})
    assert blob == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    # key order in the input dict must not matter
    assert io.dumps({"a": [2, 3], "b": 1}) == blob


def _oracle(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# every code point, lone surrogates and control characters included, with
# quotes and backslashes drawn often
_text = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f'))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64)) | _text,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(_text, inner),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert io.dumps(value) == _oracle(value)


def test_dumps_writes_the_bytes_of_json_dumps_on_every_corpus_nerve():
    sets = [nerve(c, dim_cap=4).sset for c in all_categories().values()]
    sets += [duskin_nerve(c2, dim_cap=4).sset for c2 in all_two_categories().values()]
    for x in sets:
        data = io.sset_to_json(x)
        assert io.dumps(data) == _oracle(data)
    assert any(ref.degs for x in sets for fs in x.gen_faces.values() for ref in fs)


def test_dumps_refuses_what_it_does_not_write():
    for value in ({1: "a"}, {"a": {(0, 1): 2}}, Fraction(1, 2), [1.5], {"a": SimplexRef("x")}):
        with pytest.raises(TypeError):
            io.dumps(value)


def _check_sset_dumps(x):
    """Check that sset_dumps writes the oracle's bytes or raises its error;
    the bytes, or None where the oracle raises."""
    try:
        want = io.dumps(io.sset_to_json(x))
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            io.sset_dumps(x)
        assert str(got.value) == str(exc)
        return None
    assert io.sset_dumps(x) == want
    return want


def test_sset_dumps_writes_the_bytes_of_the_generic_writer():
    sets = [nerve(c, dim_cap=cap).sset for c in all_categories().values() for cap in range(6)]
    sets += [duskin_nerve(c2, dim_cap=cap).sset
             for c2 in all_two_categories().values() for cap in range(5)]
    simplices = [standard_simplex(n) for n in range(5)]
    horns = [subcomplex_of_simplex(n, "horn", k=k) for n in range(1, 5) for k in range(n + 1)]
    sets += simplices + horns
    sets += [product(x, standard_simplex(1)) for x in simplices[:4] + horns[:6]]
    for x in sets:
        assert _check_sset_dumps(x) is not None
    assert any(ref.degs for x in sets for fs in x.gen_faces.values() for ref in fs)


def test_sset_dumps_keeps_the_generic_writer_on_odd_sets():
    ref = SimplexRef
    vertices = ['q"\\', "\u00e9\u2603\x00\ud800"]
    texts = set()
    for x in (
        # a bool letter, written 0; then one equal to the letter 0 beside it
        SimplicialSet(2, {0: ["v"], 2: ["t"]}, {"t": [ref("v", (False,))] * 3}),
        SimplicialSet(2, {0: ["v"], 2: ["t", "u"]},
                      {"t": [ref("v", (False,))] * 3, "u": [ref("v", (0,))] * 3}),
        # integer generator ids
        SimplicialSet(2, {0: [0, 1], 1: ["e"], 2: ["t"]},
                      {"e": [ref(1), ref(0)], "t": [ref(1, (0,)), ref("e"), ref("e")]}),
        # escapes and non-ASCII characters in names
        SimplicialSet(1, {0: vertices, 1: ['e"\\\u00ff']},
                      {'e"\\\u00ff': [ref(vertices[0]), ref(vertices[1])]}),
        # no faces, no generators, an empty face list
        SimplicialSet(0, {0: ["v"]}, {}),
        SimplicialSet(3, {}, {}),
        SimplicialSet(0, {0: ["v"]}, {"v": []}, check=False),
    ):
        texts.add(_check_sset_dumps(x))
    assert '"deg": [\n          0\n        ]' in "".join(texts)
    assert "false" not in "".join(texts)
    for x in (
        SimplicialSet(1, {0: ["v"], 1: [7]}, {7: [ref("v"), ref("v")]}),
        SimplicialSet(2, {0: ["v"], 1: [7], 2: ["t"]},
                      {7: [ref("v"), ref("v")], "t": [ref(7), ref(7), ref(7)]}),
    ):
        assert _check_sset_dumps(x) is None


def test_a_bool_degeneracy_letter_is_written_and_printed_as_an_int():
    x = SimplicialSet(2, {0: ["v"], 2: ["t"]}, {"t": [SimplexRef("v", (False,))] * 3})
    again = io.sset_from_json(json.loads(io.sset_dumps(x)))
    assert again == x
    assert [type(j) for ref in again.gen_faces["t"] for j in ref.degs] == [int] * 3
    assert io.sset_dumps(again) == io.sset_dumps(x)
    assert str(x.gen_faces["t"][0]) == "v.s0"


def test_sset_round_trips_byte_identical():
    for x in (
        standard_simplex(3),
        subcomplex_of_simplex(2, "horn", 1),
        subcomplex_of_simplex(3, "horn", 0),
    ):
        blob, again = _cycle(io.sset_to_json, io.sset_from_json, x)
        assert blob == again


def test_category_round_trips_byte_identical():
    for name, c in all_categories().items():
        blob, again = _cycle(io.category_to_json, io.category_from_json, c)
        assert blob == again, name


def test_two_category_round_trips_byte_identical():
    for name, c2 in all_two_categories().items():
        blob, again = _cycle(io.two_category_to_json, io.two_category_from_json, c2)
        assert blob == again, name


def test_group_action_cover_round_trips():
    groups = all_small_groups()
    for name, g in groups.items():
        blob, again = _cycle(io.group_to_json, io.group_from_json, g)
        assert blob == again, name
    acted = 0
    for g in (groups["c2"], groups["c3"]):
        for a in all_actions(g, 2):
            blob, again = _cycle(io.action_to_json, io.action_from_json, a)
            assert blob == again
            acted += 1
    assert acted == 2 + 1  # Hom(C2,S2) = 2, Hom(C3,S2) = 1
    for shape in cover_shapes(max_points=4):
        blob, again = _cycle(io.cover_to_json, io.cover_from_json, cover_of_shape(shape))
        assert blob == again


def test_action_base_survives_round_trip():
    g = all_small_groups()["c2"]
    for a in all_actions(g, 2):
        anchored = GroupAction(
            a.group, a.carrier, a.act,
            base=({"pt"}, {x: "pt" for x in a.carrier}),
        )
        back = io.action_from_json(json.loads(io.dumps(io.action_to_json(anchored))))
        assert back.base == anchored.base
        assert back.base is not None


def test_load_path_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(InputError):
        io.load_path(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        io.load_path(bad)


def test_from_json_validates_shape():
    with pytest.raises(InputError):
        io.sset_from_json({"dim_cap": 2, "generators": {}})  # no faces
    with pytest.raises(InputError):
        io.sset_from_json([1, 2, 3])
    with pytest.raises(InputError):
        io.category_from_json({"objects": [], "morphisms": [], "identities": {}})
    with pytest.raises(InputError):
        io.category_from_json(
            {"objects": ["x"], "morphisms": [], "identities": {"x": "i"},
             "compose": [["a", "b"]]}
        )
    with pytest.raises(InputError):
        io.group_from_json({"elements": ["e"], "mul": [["e", "e"]]})
    with pytest.raises(InputError):
        io.action_from_json({"group": {"elements": ["e"], "mul": [["e", "e", "e"]]},
                             "carrier": ["x"], "act": [["e", "x"]]})
    with pytest.raises(InputError):
        io.cover_from_json({"E": ["e"], "pi": {"e": "b"}})


def test_each_face_ref_occurrence_is_checked_after_an_equal_one_was_read():
    # after `good` is read, each bad ref is one loose check away from its cache entry
    good = {"gen": "x", "deg": [1]}
    bads = [{"gen": "x", "deg": word} for word in ([True], [1.0], [0, 1], [[1]], (1,), [1, 1])]
    bads += [{"gen": gen, "deg": [1]} for gen in (1, ["x"])]
    bads.append({"gen": "x", "deg": [1], "extra": 0})
    for bad in bads:
        data = {
            "dim_cap": 3,
            "generators": {"0": ["v"], "1": ["x"], "3": ["w", "z"]},
            "faces": {"x": ["v", "v"], "w": [good, good, good, good], "z": [good, good, bad, good]},
        }
        with pytest.raises(InputError) as want:
            SimplexRef.from_json(bad)
        with pytest.raises(InputError) as got:
            io.sset_from_json(data)
        assert str(got.value) == str(want.value), bad


def test_a_nerve_read_with_shared_refs_equals_one_read_ref_by_ref():
    data = json.loads(io.dumps(io.sset_to_json(nerve(all_categories()["bs3"], dim_cap=3).sset)))
    got = io.sset_from_json(data)
    want = SimplicialSet(
        data["dim_cap"],
        {int(d): ids for d, ids in data["generators"].items()},
        {g: [SimplexRef.from_json(r) for r in refs] for g, refs in data["faces"].items()},
    )
    assert got == want
    assert any(ref.degs for fs in got.gen_faces.values() for ref in fs)
    # each distinct ref is one object
    refs = [ref for fs in got.gen_faces.values() for ref in fs]
    assert len({id(ref) for ref in refs}) == len(set(refs)) < len(refs)
    a, b = got.table(), want.table()
    assert (a.levels, a.faces, a.degs) == (b.levels, b.faces, b.degs)


def test_fraction_to_json_normalizes():
    from fractions import Fraction

    assert io.fraction_to_json(2) == {"num": 2, "den": 1}
    assert io.fraction_to_json(Fraction(4, 6)) == {"num": 2, "den": 3}
