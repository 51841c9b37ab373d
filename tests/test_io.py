"""Serialization round trips and loader validation."""

import json

import pytest

from hornfill import io
from hornfill.cat import nerve
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
from hornfill.sset import SimplexRef, SimplicialSet, standard_simplex, subcomplex_of_simplex


def _cycle(to_json, from_json, value):
    blob = io.dumps(to_json(value))
    again = io.dumps(to_json(from_json(json.loads(blob))))
    return blob, again


def test_dumps_is_deterministic_and_newline_terminated():
    blob = io.dumps({"b": 1, "a": [2, 3]})
    assert blob == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    # key order in the input dict must not matter
    assert io.dumps({"a": [2, 3], "b": 1}) == blob


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
    good = {"gen": "x", "deg": [1]}
    for word in ([True], [1.0], [0, 1]):
        bad = {"gen": "x", "deg": word}
        data = {
            "dim_cap": 3,
            "generators": {"0": ["v"], "1": ["x"], "3": ["w", "z"]},
            "faces": {"x": ["v", "v"], "w": [good, good, good, good], "z": [good, good, bad, good]},
        }
        with pytest.raises(InputError) as want:
            SimplexRef.from_json(bad)
        with pytest.raises(InputError) as got:
            io.sset_from_json(data)
        assert str(got.value) == str(want.value), word


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
