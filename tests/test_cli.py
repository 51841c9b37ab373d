"""End-to-end command line checks, run in process through main()."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import hornfill
from hornfill import io
from hornfill.cat import Finite2Category, duskin_nerve, nerve, two_category_from_category
from hornfill.cli import main
from hornfill.corpus import (
    all_categories,
    all_small_groups,
    all_two_categories,
    bg_category,
    cover_of_shape,
    free_transitive_action,
    refine_cover,
    trivial_action,
)
from hornfill.groupoid import GroupAction, direct_product
from hornfill.sset import standard_simplex, subcomplex_of_simplex


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(io.dumps(data))
    return str(path)


@pytest.fixture
def files(tmp_path):
    cats = all_categories()
    groups = all_small_groups()
    c2 = groups["c2"]
    cover = cover_of_shape((2, 1))
    refined, r = refine_cover(cover, {"b0": 1})
    free = free_transitive_action(c2)
    anchored = GroupAction(
        free.group, free.carrier, free.act,
        base=({"pt"}, {x: "pt" for x in free.carrier}),
    )
    lazy = trivial_action(c2, 2)
    lazy = GroupAction(
        lazy.group, lazy.carrier, lazy.act,
        base=({"pt"}, {x: "pt" for x in lazy.carrier}),
    )
    return {
        "d2": _write(tmp_path, "d2.json", io.sset_to_json(standard_simplex(2))),
        "d1": _write(tmp_path, "d1.json", io.sset_to_json(standard_simplex(1))),
        "horn21": _write(
            tmp_path, "horn21.json",
            io.sset_to_json(subcomplex_of_simplex(2, "horn", 1)),
        ),
        "bc2": _write(tmp_path, "bc2.json", io.category_to_json(cats["bc2"])),
        "nbc2": _write(
            tmp_path, "nbc2.json",
            io.sset_to_json(nerve(cats["bc2"], dim_cap=3).sset),
        ),
        "tg2": _write(
            tmp_path, "tg2.json",
            io.two_category_to_json(all_two_categories()["two_group_c2"]),
        ),
        "c2": _write(tmp_path, "c2.json", io.group_to_json(c2)),
        "free": _write(tmp_path, "free.json", io.action_to_json(anchored)),
        "lazy": _write(tmp_path, "lazy.json", io.action_to_json(lazy)),
        "cover": _write(tmp_path, "cover.json", io.cover_to_json(cover)),
        "refined": _write(tmp_path, "refined.json", io.cover_to_json(refined)),
        "rmap": _write(tmp_path, "rmap.json", r),
        "tmp": tmp_path,
    }


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out), out


def test_sset_info_counts_and_text(files, capsys):
    assert main(["sset", "info", files["d2"]]) == 0
    data, raw = _json_out(capsys)
    assert data["simplices"] == {"0": 3, "1": 6, "2": 10, "3": 15, "4": 21}
    assert data["nondegenerate"] == {"0": 3, "1": 3, "2": 1, "3": 0, "4": 0}
    assert main(["sset", "info", files["d2"], "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("dim_cap 4\n")
    assert "level 2: 10 simplices, 1 non-degenerate" in text


def test_sset_info_builds_no_level_beyond_loading(tmp_path, capsys, monkeypatch):
    x = nerve(all_categories()["bs3"], dim_cap=4).sset
    path = _write(tmp_path, "nbs3.json", io.sset_to_json(x))
    loaded = []

    def load(data, original=io.sset_from_json):
        loaded.append(original(data))
        return loaded[-1]

    monkeypatch.setattr(io, "sset_from_json", load)
    assert main(["sset", "info", path]) == 0
    data, _ = _json_out(capsys)
    assert data["simplices"] == {str(n): len(x.simplices(n)) for n in range(5)}
    # loading builds the levels below the top generator dimension, 4
    assert loaded[0]._level_table.level_cap == 3


def test_check_kan_exit_codes(files, capsys):
    assert main(["sset", "check-kan", files["nbc2"]]) == 0
    data, _ = _json_out(capsys)
    assert data["weak_kan"] and data["kan"]
    assert main(["sset", "check-kan", files["horn21"]]) == 1
    data, _ = _json_out(capsys)
    assert not data["weak_kan"]


def test_fillers_profile(files, capsys):
    assert main(["sset", "fillers", files["nbc2"], "--n", "2", "--k", "1"]) == 0
    data, _ = _json_out(capsys)
    assert data["horn_maps"] == 4 and data["filler_profile"] == {"1": 4}


def test_nerve_output_file_and_determinism(files, capsys):
    out = str(files["tmp"] / "nerve.json")
    argv = ["cat", "nerve", files["bc2"], "--dim-cap", "2", "--output", out]
    assert main(argv) == 0
    first = open(out).read()
    assert main(argv) == 0
    assert open(out).read() == first
    data = json.loads(first)
    assert [len(data["generators"].get(str(n), [])) for n in range(3)] == [1, 1, 1]
    assert capsys.readouterr().out == ""  # --output keeps stdout quiet


def test_duskin_counts(files, capsys):
    assert main(["cat", "duskin", files["tg2"], "--dim-cap", "3"]) == 0
    data, _ = _json_out(capsys)
    x = io.sset_from_json(data)
    assert [x.count(n) for n in range(4)] == [1, 1, 2, 8]


def test_cat_duskin_checks_each_loaded_two_category_once(capsys, tmp_path, monkeypatch):
    # a 2-category is checked when the loader builds it, and the Duskin
    # nerve does not check it again
    paths = [_write(tmp_path, f"{name}.json", io.two_category_to_json(c2))
             for name, c2 in all_two_categories().items()]
    calls = []
    validate = Finite2Category.validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(Finite2Category, "validate", counted)
    for path in paths:
        assert main(["cat", "duskin", path, "--dim-cap", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == len(paths) == 7
    assert len(set(map(id, calls))) == 7


def test_nerve_and_duskin_write_the_bytes_of_the_generic_writer(capsys, tmp_path, monkeypatch):
    cats, two_cats = all_categories(), all_two_categories()
    cases = []
    for sub, c, to_json, build in (
        [("nerve", cats[name], io.category_to_json, nerve) for name in ("bc2", "bs3", "poset3")]
        + [("duskin", two_cats[name], io.two_category_to_json, duskin_nerve)
           for name in ("two_group_c2", "two_group_c3")]
    ):
        x = build(c, dim_cap=3).sset
        path = _write(tmp_path, f"{sub}-{len(cases)}.json", to_json(c))
        cases.append((["cat", sub, path, "--dim-cap", "3"], x, io.dumps(io.sset_to_json(x))))
    spied = []
    monkeypatch.setattr(io, "sset_to_json", spied.append)
    out = str(tmp_path / "out.json")
    for argv, x, want in cases:
        assert main(argv + ["--output", out]) == 0
        assert open(out).read() == want
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert main(argv + ["--format", "text"]) == 0
        assert capsys.readouterr().out == "".join(f"level {n}: {x.count(n)}\n" for n in range(4))
    assert spied == []


def test_tau_and_hcat_recover_the_group(files, capsys):
    for sub in ("tau", "hcat"):
        assert main(["cat", sub, files["nbc2"]]) == 0
        data, _ = _json_out(capsys)
        assert len(data["objects"]) == 1 and len(data["morphisms"]) == 2
    # homotopy category needs inner fillers; a bare horn has none
    assert main(["cat", "hcat", files["horn21"]]) == 2


def test_maps_count(files, capsys):
    assert main(["cat", "maps", files["d1"], files["d1"]]) == 0
    data, _ = _json_out(capsys)
    assert data["count"] == 3 and len(data["maps"]) == 3


def test_maps_from_a_source_deeper_than_the_recursion_limit(capsys, tmp_path):
    # the 2-truncated nerve of B(S3 x S3) has 1,261 generators, more than
    # Python's default recursion limit; the map search keeps its own stack
    s3 = all_small_groups()["s3"]
    big = nerve(bg_category(direct_product(s3, s3)), dim_cap=2).sset
    assert sum(len(big.generators(d)) for d in range(3)) == 1261
    src = _write(tmp_path, "bs3s3.json", io.sset_to_json(big))
    tgt = _write(tmp_path, "bc1.json", io.sset_to_json(
        nerve(bg_category(all_small_groups()["c1"]), dim_cap=2).sset))
    assert main(["cat", "maps", src, tgt]) == 0
    data, _ = _json_out(capsys)
    assert data["count"] == 1 and len(data["maps"]) == 1


def test_quotient_and_stabilizer(files, capsys, tmp_path):
    # free transitive quotient is a point
    assert main(["grpd", "quotient", files["free"]]) == 0
    data, _ = _json_out(capsys)
    assert data["cardinality"] == {"den": 1, "num": 1}
    assert len(data["objects"]) == 2 and len(data["morphisms"]) == 4
    # one fixed point gives the one-object groupoid on the full group
    c2 = all_small_groups()["c2"]
    fixed = _write(tmp_path, "fixed.json", io.action_to_json(trivial_action(c2, 1)))
    assert main(["grpd", "quotient", fixed]) == 0
    data, _ = _json_out(capsys)
    assert data["cardinality"] == {"den": 2, "num": 1}
    assert main(["grpd", "stabilizer", files["lazy"], "--point", "x0"]) == 0
    data, _ = _json_out(capsys)
    assert len(data["elements"]) == 2
    assert main(["grpd", "stabilizer", files["lazy"], "--point", "zz"]) == 2


def test_torsor_exit_codes(files, capsys):
    assert main(["grpd", "torsor", files["free"]]) == 0
    data, _ = _json_out(capsys)
    assert data["is_torsor"] and data["trivializable"]
    assert main(["grpd", "torsor", files["lazy"]]) == 1
    data, _ = _json_out(capsys)
    assert not data["act_pr_bijective"]


def test_cech_levels(files, capsys):
    assert main(["grpd", "cech", files["cover"], "--level-cap", "3"]) == 0
    data, _ = _json_out(capsys)
    assert data["levels"] == {"0": 3, "1": 5, "2": 9, "3": 17}
    assert data["holds"] and data["witness"] is None


def test_cech_prints_the_pinned_bytes(capsys, tmp_path):
    split = _write(tmp_path, "split.json", io.cover_to_json(cover_of_shape((2, 1), split=True)))
    sizes = [3, 5, 9, 17, 33, 65]
    for cap, checked in ((3, 15), (5, 140)):
        assert main(["grpd", "cech", split, "--level-cap", str(cap)]) == 0
        want = {"checked": checked, "holds": True, "level_cap": cap,
                "levels": {str(n): sizes[n] for n in range(cap + 1)}, "witness": None}
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_sheaf_exit_codes(files, capsys):
    assert main(["descent", "sheaf", files["cover"]]) == 0
    data, _ = _json_out(capsys)
    assert data["is_sheaf"]
    assert main(["descent", "sheaf", files["cover"], "--presheaf", "doubled"]) == 1
    assert main(["descent", "sheaf", files["cover"], "--values", "a,a"]) == 2


def test_stack_exit_codes(files, capsys):
    assert main(["descent", "stack", files["cover"], "--group", files["c2"]]) == 0
    data, _ = _json_out(capsys)
    assert data["is_stack"]
    assert main(
        ["descent", "stack", files["cover"], "--group", files["c2"],
         "--presheaf", "doubled"]
    ) == 1


_UNSORTED = {"E": ["y", "x", "w"], "B": ["q", "p"], "pi": {"y": "q", "x": "p", "w": "q"}}
_RESTRICT_EQUALLY = "equalizer: ('0', '0') and ('0', '1') restrict equally"
_SHEAF = {"equalizer_count": 4, "equalizer_injective": True, "equalizer_surjective": True,
          "global_count": 4, "is_sheaf": True, "products_ok": True, "witness": None}
_NOT_INJECTIVE = {"equalizer_count": 4, "equalizer_injective": False,
                  "equalizer_surjective": False, "global_count": 4, "is_sheaf": False,
                  "products_ok": True, "witness": _RESTRICT_EQUALLY}
_CONSTANT_SHEAF = {"equalizer_count": 2, "equalizer_injective": True,
                   "equalizer_surjective": True, "global_count": 2, "is_sheaf": True,
                   "products_ok": True, "witness": None}
_STACK = {"base_objects": 1, "descent_components": 1, "descent_objects": 1,
          "descent_ok": True, "essentially_surjective": True, "fully_faithful": True,
          "is_stack": True, "products_ok": True, "witness": None}


def _split_parts(glued, total, morphisms):
    what = "part-morphism families are assembled" if morphisms else "part-families are glued"
    return f"parts: {glued} of {total} {what}"


# (command, cover, presheaf) -> (exit code, JSON output), as printed before
# presheaf elements and morphisms were tuples over positions
_PINNED_DESCENT = {
    ("sheaf", "split", "representable"): (0, _SHEAF),
    ("sheaf", "split", "constant"): (1, {
        **_CONSTANT_SHEAF, "is_sheaf": False, "products_ok": False,
        "witness": _split_parts(2, 8, False)}),
    ("sheaf", "split", "doubled"): (1, _NOT_INJECTIVE),
    ("stack", "split", "constant"): (1, {
        **_STACK, "is_stack": False, "products_ok": False, "witness": _split_parts(2, 8, True)}),
    ("stack", "split", "doubled"): (1, {
        **_STACK, "descent_ok": False, "fully_faithful": False, "is_stack": False,
        "products_ok": False, "witness": _split_parts(2, 8, True)}),
    ("sheaf", "unsorted", "representable"): (0, _SHEAF),
    ("sheaf", "unsorted", "constant"): (0, _CONSTANT_SHEAF),
    ("sheaf", "unsorted", "doubled"): (1, _NOT_INJECTIVE),
    ("stack", "unsorted", "constant"): (0, _STACK),
    ("stack", "unsorted", "doubled"): (1, {
        **_STACK, "descent_ok": False, "fully_faithful": False, "is_stack": False,
        "witness": "descent: comparison is not bijective on morphisms"}),
    ("sheaf", "unsorted_split", "representable"): (0, _SHEAF),
    ("sheaf", "unsorted_split", "constant"): (1, {
        **_CONSTANT_SHEAF, "is_sheaf": False, "products_ok": False,
        "witness": _split_parts(2, 4, False)}),
    ("sheaf", "unsorted_split", "doubled"): (1, _NOT_INJECTIVE),
    ("stack", "unsorted_split", "constant"): (1, {
        **_STACK, "is_stack": False, "products_ok": False, "witness": _split_parts(2, 4, True)}),
    ("stack", "unsorted_split", "doubled"): (1, {
        **_STACK, "descent_ok": False, "fully_faithful": False, "is_stack": False,
        "products_ok": False, "witness": _split_parts(2, 4, True)}),
}


def test_descent_sheaf_and_stack_print_the_pinned_bytes(files, capsys, tmp_path):
    covers = {
        "split": _write(tmp_path, "split.json",
                        io.cover_to_json(cover_of_shape((2, 1), split=True))),
        "unsorted": _write(tmp_path, "unsorted.json", _UNSORTED),
        "unsorted_split": _write(tmp_path, "unsorted_split.json",
                                 {**_UNSORTED, "parts": [["y"], ["x", "w"]]}),
    }
    for (command, cover, presheaf), (code, data) in _PINNED_DESCENT.items():
        argv = ["descent", command, covers[cover], "--presheaf", presheaf]
        if command == "stack":
            argv += ["--group", files["c2"]]
        assert main(argv) == code, (command, cover, presheaf)
        out = capsys.readouterr().out
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n", (command, cover, presheaf)


def test_stack_on_the_empty_cover(files, capsys, tmp_path):
    # the product over no parts is the terminal groupoid
    empty = _write(tmp_path, "empty.json", {"E": [], "B": [], "pi": {}, "parts": []})
    c1 = _write(tmp_path, "c1.json", io.group_to_json(all_small_groups()["c1"]))
    stack = ["descent", "stack", empty, "--presheaf"]
    assert main(stack + ["constant", "--group", files["c2"]]) == 1
    data, _ = _json_out(capsys)
    assert not data["products_ok"]
    assert main(stack + ["constant", "--group", c1]) == 0
    data, _ = _json_out(capsys)
    assert data["is_stack"]


def test_doubled_stack_on_the_empty_cover_matches_constant(files, capsys, tmp_path):
    # E and B are both empty there: the base is told by its role, not its points
    empty = _write(tmp_path, "empty.json", {"E": [], "B": [], "pi": {}, "parts": []})
    c1 = _write(tmp_path, "c1.json", io.group_to_json(all_small_groups()["c1"]))
    stack = ["descent", "stack", empty, "--presheaf"]
    for group, code in ((c1, 0), (files["c2"], 1)):
        verdicts = []
        for presheaf in ("constant", "doubled"):
            assert main(stack + [presheaf, "--group", group]) == code
            verdicts.append(_json_out(capsys)[0]["products_ok"])
        assert verdicts == [code == 0] * 2


def test_cocycles_census(files, capsys):
    assert main(["descent", "cocycles", files["cover"], "--group", files["c2"]]) == 0
    data, _ = _json_out(capsys)
    assert data["cocycle_count"] == 2
    assert data["cardinality"] == {"den": 4, "num": 1}


def test_refine_roundtrip_and_bad_map(files, capsys, tmp_path):
    argv = [
        "descent", "refine", files["cover"], files["refined"], files["rmap"],
        "--group", files["c2"],
    ]
    assert main(argv) == 0
    data, _ = _json_out(capsys)
    assert data["restriction_is_equivalence"] and data["skeletons_agree"]
    crossed = {p: "e1_0" for p in json.loads(open(files["rmap"]).read())}
    bad = _write(tmp_path, "bad_map.json", crossed)
    assert main(
        ["descent", "refine", files["cover"], files["refined"], bad,
         "--group", files["c2"]]
    ) == 2


def test_budget_flag_beats_env(files, capsys, monkeypatch):
    monkeypatch.setenv("HORNFILL_BUDGET", "1")
    assert main(["cat", "maps", files["d1"], files["d1"]]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(
        ["cat", "maps", files["d1"], files["d1"], "--budget", "100000"]
    ) == 0
    monkeypatch.setenv("HORNFILL_BUDGET", "plenty")
    assert main(["cat", "maps", files["d1"], files["d1"]]) == 2


# the eight subcommands that pass --budget to a search, and the eight that
# run none and so offer no --budget
SEARCH_ARGV = {
    "check-kan": ["sset", "check-kan", "{nbc2}"],
    "fillers": ["sset", "fillers", "{nbc2}", "--n", "2", "--k", "1"],
    "duskin": ["cat", "duskin", "{tg2}", "--dim-cap", "3"],
    "tau": ["cat", "tau", "{nbc2}"],
    "maps": ["cat", "maps", "{d1}", "{d1}"],
    "stack": ["descent", "stack", "{cover}", "--group", "{c2}"],
    "cocycles": ["descent", "cocycles", "{cover}", "--group", "{c2}"],
    "refine": ["descent", "refine", "{cover}", "{refined}", "{rmap}", "--group", "{c2}"],
}
PLAIN_ARGV = {
    "info": ["sset", "info", "{d2}"],
    "nerve": ["cat", "nerve", "{bc2}"],
    "hcat": ["cat", "hcat", "{nbc2}"],
    "quotient": ["grpd", "quotient", "{free}"],
    "stabilizer": ["grpd", "stabilizer", "{free}", "--point", "{point}"],
    "torsor": ["grpd", "torsor", "{free}"],
    "cech": ["grpd", "cech", "{cover}"],
    "sheaf": ["descent", "sheaf", "{cover}"],
}


def _argv(template, files):
    point = json.loads(open(files["free"]).read())["carrier"][0]
    return [a.format(point=point, **files) for a in template]


@pytest.mark.parametrize("command", sorted(SEARCH_ARGV))
def test_budget_must_be_positive(command, files, capsys, monkeypatch):
    monkeypatch.delenv("HORNFILL_BUDGET", raising=False)
    argv = _argv(SEARCH_ARGV[command], files)
    assert main(argv + ["--budget", "10000000"]) in (0, 1)
    capsys.readouterr()
    for value in ("0", "-5"):
        assert main(argv + ["--budget", value]) == 2
        assert capsys.readouterr().err == f"error: --budget must be positive, got {value}\n"
    # the flag follows the rule the environment variable already follows
    monkeypatch.setenv("HORNFILL_BUDGET", "0")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: HORNFILL_BUDGET must be positive, got 0\n"


@pytest.mark.parametrize("command", sorted(PLAIN_ARGV))
def test_commands_without_a_search_offer_no_budget(command, files, capsys):
    argv = _argv(PLAIN_ARGV[command], files)
    assert main(argv) in (0, 1)
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--budget", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(files):
    # a checkout run with the package on PYTHONPATH and nothing installed
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hornfill.__file__).parents[1]))
    env.pop("HORNFILL_BUDGET", None)
    codes = [
        subprocess.run(
            [sys.executable, "-m", "hornfill", "sset", "check-kan", path, "--dim-cap", "2"],
            env=env, capture_output=True, text=True,
        )
        for path in (files["nbc2"], files["horn21"], str(files["tmp"] / "missing.json"))
    ]
    assert [c.returncode for c in codes] == [0, 1, 2]
    assert json.loads(codes[0].stdout)["weak_kan"]
    assert codes[2].stderr.startswith("error: ")


def test_text_format_is_not_json(files, capsys):
    assert main(["descent", "sheaf", files["cover"], "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "parts condition: True"
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def _exits_2_without_traceback(argv, capsys):
    assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


def test_nerve_name_clashes_exit_2(capsys, tmp_path):
    # valid categories whose simplices the nerve would name alike: an
    # object and a morphism f, and a morphism x|y = y . x
    def category(objects, arrows, compose):
        units = {v: f"1{v}" for v in objects}
        return {
            "objects": objects,
            "morphisms": [{"id": m, "src": s, "tgt": t}
                          for m, s, t in [(u, v, v) for v, u in units.items()] + arrows],
            "identities": units,
            "compose": [[u, u, u] for u in units.values()] + compose,
        }

    af = category(["a", "f"], [("f", "a", "f")], [["f", "1a", "f"], ["1f", "f", "f"]])
    xy = category(
        ["a", "b", "c"],
        [("x", "a", "b"), ("y", "b", "c"), ("x|y", "a", "c")],
        [["x", "1a", "x"], ["1b", "x", "x"], ["y", "1b", "y"], ["1c", "y", "y"],
         ["x|y", "1a", "x|y"], ["1c", "x|y", "x|y"], ["y", "x", "x|y"]],
    )
    two = io.two_category_to_json(two_category_from_category(io.category_from_json(af)))
    for argv, message in (
        (["cat", "nerve", _write(tmp_path, "af.json", af)],
         "'f': 'f' at level 0 and ('f',) at level 1"),
        (["cat", "nerve", _write(tmp_path, "xy.json", xy)],
         "'x|y': ('x|y',) at level 1 and ('x', 'y') at level 2"),
        (["cat", "duskin", _write(tmp_path, "af2.json", two)],
         "'f': 'f' at level 0 and 'f' at level 1"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: level namer collision at {message}\n"


def test_broken_face_identity_exits_2(capsys, tmp_path):
    # well-formed JSON whose triangle t has the one edge e: a -> b as all
    # three faces, so d_0 d_2 t = b but d_1 d_0 t = a
    path = _write(tmp_path, "bent.json", {
        "dim_cap": 2,
        "generators": {"0": ["a", "b"], "1": ["e"], "2": ["t"]},
        "faces": {"e": ["b", "a"], "t": ["e", "e", "e"]},
    })
    for argv in (["sset", "info", path], ["sset", "check-kan", path], ["cat", "tau", path]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: d_0 d_2 != d_1 d_0 on generator 't'\n", argv


def test_identities_keyed_by_unknown_objects_exit_2(capsys, tmp_path):
    path = _write(tmp_path, "ghost.cat.json", {
        "objects": ["x"],
        "morphisms": [{"id": "i", "src": "x", "tgt": "x"}],
        "identities": {"x": "i", "ghost": "i"},
        "compose": [["i", "i", "i"]],
    })
    assert main(["cat", "nerve", path]) == 2
    assert capsys.readouterr().err == "error: identity keyed by unknown object 'ghost'\n"
    good = io.two_category_to_json(all_two_categories()["walking_cell"])
    cell = good["two_cells"][0]["id"]
    path = _write(tmp_path, "ghost.cat2.json", {
        **good, "two_identities": {**good["two_identities"], "ghost": cell},
    })
    assert main(["cat", "duskin", path]) == 2
    assert capsys.readouterr().err == (
        "error: vertical: identity keyed by unknown object 'ghost'\n"
    )


def test_malformed_covers_exit_2(files, capsys, tmp_path):
    good = io.cover_to_json(cover_of_shape((2, 1)))
    bad = {
        "pi_list": {**good, "pi": [[x, b] for x, b in good["pi"].items()]},
        "pi_string": {**good, "pi": "e0_0"},
        "e_string": {"E": "ab", "B": ["u"], "pi": {"a": "u", "b": "u"}},
        "b_string": {"E": ["a"], "B": "u", "pi": {"a": "u"}},
        "integer_ids": {"E": ["a"], "B": [0], "pi": {"a": 0}},
        "unknown_key": {**good, "fibres": 2},
        "parts_string": {**good, "parts": "e0_0"},
        "part_string": {**good, "parts": ["e0_0", "e0_1", "e1_0"]},
    }
    for name, data in bad.items():
        path = _write(tmp_path, f"{name}.json", data)
        _exits_2_without_traceback(["descent", "sheaf", path], capsys)
        _exits_2_without_traceback(["grpd", "cech", path], capsys)
        _exits_2_without_traceback(
            ["descent", "cocycles", path, "--group", files["c2"]], capsys
        )


def test_malformed_groups_exit_2(files, capsys, tmp_path):
    good = io.group_to_json(all_small_groups()["c2"])
    bad = {
        "unknown_key": {**good, "order": 2},
        "elements_string": {**good, "elements": "c0c1"},
        "integer_ids": {"elements": [0], "mul": [[0, 0, 0]]},
        "short_row": {**good, "mul": good["mul"][:-1] + [["c1", "c1"]]},
        "string_row": {"elements": ["abc"], "mul": ["abc"]},
        "mul_object": {**good, "mul": {"c0": "c0"}},
    }
    for name, data in bad.items():
        path = _write(tmp_path, f"{name}.json", data)
        _exits_2_without_traceback(
            ["descent", "cocycles", files["cover"], "--group", path], capsys
        )
        _exits_2_without_traceback(
            ["descent", "stack", files["cover"], "--group", path], capsys
        )


def test_unreadable_inputs_exit_2(files, capsys, tmp_path):
    _exits_2_without_traceback(["sset", "info", str(tmp_path)], capsys)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"E": ["\xe9"]}')
    _exits_2_without_traceback(["descent", "sheaf", str(latin)], capsys)
    listed = _write(tmp_path, "listed_map.json", {"cb0_0": ["e0_0"]})
    _exits_2_without_traceback(
        ["descent", "refine", files["cover"], files["refined"], listed,
         "--group", files["c2"]], capsys
    )


def test_descent_budget_exits_2(files, capsys):
    _exits_2_without_traceback(
        ["descent", "cocycles", files["cover"], "--group", files["c2"], "--budget", "1"],
        capsys,
    )


def test_tau_without_a_budget_uses_the_path_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("HORNFILL_BUDGET", raising=False)
    loops = _write(tmp_path, "loops.json", {
        "dim_cap": 1,
        "generators": {"0": ["v"], "1": ["a", "b"]},
        "faces": {"a": ["v", "v"], "b": ["v", "v"]},
    })
    start = time.perf_counter()
    assert main(["cat", "tau", loops]) == 2
    assert time.perf_counter() - start < 20
    assert "path universe exceeded budget 100000" in capsys.readouterr().err


def test_malformed_simplicial_sets_exit_2(files, capsys, tmp_path):
    good = io.sset_to_json(standard_simplex(1))
    bad = {
        "unknown_key": {**good, "name": "d1"},
        "integer_ids": {**good, "generators": {"0": [0, 1], "1": ["01"]}},
        "integer_face": {**good, "faces": {"01": [1, "0"]}},
        "integer_face_gen": {**good, "faces": {"01": [{"gen": 1, "deg": []}, "0"]}},
        "face_string": {**good, "faces": {"01": "10"}},
        "ghost_faces": {**good, "faces": {**good["faces"], "ghost": ["0", "1"]}},
        "generators_list": {**good, "generators": [["0", "1"], ["01"]]},
        "deg_integer": {**good, "faces": {"01": [{"gen": "1", "deg": 0}, "0"]}},
        "dim_cap_bool": {**good, "dim_cap": True},
    }
    for name, data in bad.items():
        path = _write(tmp_path, f"{name}.json", data)
        _exits_2_without_traceback(["sset", "info", path], capsys)
        _exits_2_without_traceback(["cat", "tau", path], capsys)


def test_generator_dimension_keys_are_plain_integers_in_either_order(capsys, tmp_path):
    # int() reads each of these keys as 1: were they accepted, one id list
    # would replace the other, depending on the order of the keys
    for other in (" 1", "01", "+1"):
        for name, generators in (
            ("plain_first", {"0": ["x", "y"], "1": ["e"], other: []}),
            ("other_first", {"0": ["x", "y"], other: [], "1": ["e"]}),
        ):
            path = _write(tmp_path, f"{name}.json", {
                "dim_cap": 1, "generators": generators, "faces": {"e": ["y", "x"]},
            })
            assert main(["sset", "info", path]) == 2, (other, name)
            assert capsys.readouterr().err == (
                f"error: generators must map dimensions to id lists; {other!r} is no dimension\n"
            )


def test_malformed_actions_exit_2(tmp_path, capsys):
    c2 = all_small_groups()["c2"]
    free = free_transitive_action(c2)
    good = io.action_to_json(
        GroupAction(c2, free.carrier, free.act, base=({"pt"}, {x: "pt" for x in free.carrier}))
    )
    bad = {
        "list_point": {**good, "carrier": [["c0"]] + good["carrier"][1:]},
        "carrier_string": {**good, "carrier": "c0c1"},
        "act_object": {**good, "act": {"c0": "c0"}},
        "list_act_entry": {**good, "act": [[["c0"], "c0", "c0"]] + good["act"][1:]},
        "integer_act_entry": {**good, "act": [[0, 0, 0]]},
        "short_act_row": {**good, "act": [good["act"][0][:2]]},
        "list_base_point": {**good, "base": {**good["base"], "set": [["pt"]]}},
        "base_pi_list": {**good, "base": {**good["base"], "pi": [["c0", "pt"]]}},
        "unknown_key": {**good, "name": "free"},
        "repeated_point": {**good, "carrier": good["carrier"] + good["carrier"][:1]},
        "repeated_base_point": {**good, "base": {**good["base"], "set": ["pt", "pt"]}},
    }
    for name, data in bad.items():
        path = _write(tmp_path, f"{name}.json", data)
        _exits_2_without_traceback(["grpd", "quotient", path], capsys)
        _exits_2_without_traceback(["grpd", "torsor", path], capsys)
        _exits_2_without_traceback(["grpd", "stabilizer", path, "--point", "c0"], capsys)


def _malformed_categories(good):
    """Category-level mutations of a category or two-category JSON file."""
    first = good["morphisms"][0]
    return {
        "unknown_key": {**good, "name": "c"},
        "list_object": {**good, "objects": [good["objects"][:1]] + good["objects"][1:]},
        "objects_string": {**good, "objects": "".join(good["objects"])},
        "integer_morphism": {**good, "morphisms": [{**first, "id": 0}]},
        "list_src": {**good, "morphisms": [{**first, "src": [first["src"]]}]},
        "morphisms_object": {**good, "morphisms": {first["id"]: first}},
        "integer_identity": {
            **good, "identities": {x: 0 for x in good["identities"]}
        },
        "identities_list": {**good, "identities": list(good["identities"].items())},
        "integer_compose": {**good, "compose": [[0, 0, 0]]},
        "compose_string": {**good, "compose": "".join(good["compose"][0])},
        "short_compose_row": {**good, "compose": [good["compose"][0][:2]]},
        # a second row for one id or one pair is refused, not read over the first
        "repeated_morphism": {**good, "morphisms": good["morphisms"] + [first]},
        "repeated_compose_pair": {
            **good, "compose": [good["compose"][0][:2] + ["BOGUS"]] + good["compose"]
        },
    }


def test_malformed_categories_exit_2(tmp_path, capsys):
    good = io.category_to_json(all_categories()["poset1"])
    for name, data in _malformed_categories(good).items():
        path = _write(tmp_path, f"{name}.cat.json", data)
        _exits_2_without_traceback(["cat", "nerve", path], capsys)
    good2 = io.two_category_to_json(all_two_categories()["walking_cell"])
    cell = good2["two_cells"][0]
    bad2 = {
        **_malformed_categories(good2),
        "integer_two_cell": {**good2, "two_cells": [{**cell, "id": 1}]},
        "list_two_cell_src": {**good2, "two_cells": [{**cell, "src": [cell["src"]]}]},
        "integer_two_identity": {
            **good2, "two_identities": {f: 1 for f in good2["two_identities"]}
        },
        "integer_vcompose": {**good2, "vcompose": [[1, 1, 1]]},
        "hcompose_object": {**good2, "hcompose": {cell["id"]: cell["id"]}},
    }
    for name, data in bad2.items():
        path = _write(tmp_path, f"{name}.cat2.json", data)
        _exits_2_without_traceback(["cat", "duskin", path], capsys)
