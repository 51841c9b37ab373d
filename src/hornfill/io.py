"""JSON formats for every object kind, and deterministic writers.

All dumps are byte-deterministic: keys sorted, two-space indent, one
trailing newline.  Loaders validate shape up front so malformed input
fails as InputError before any construction work starts.
"""

import json
from fractions import Fraction

from .cat import Finite2Category, FiniteCategory
from .descent import Cover
from .errors import InputError
from .groupoid import FiniteGroup, GroupAction
from .sset import SimplexRef, SimplicialSet


def dumps(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_path(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _require(data, keys, what):
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputError(f"{what} is missing keys {missing}")


def _only(data, keys, what):
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise InputError(f"{what} has unknown keys {unknown}")


def _ids(value, what):
    """A JSON list of string ids."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{what} must be a list of string ids")
    return value


# ---------------------------------------------------------------------------
# simplicial sets


def sset_to_json(x):
    gens = {str(d): list(x.generators(d)) for d in range(x.dim_cap + 1) if x.generators(d)}
    faces = {
        g: [ref.to_json() for ref in x.gen_faces[g]]
        for g in sorted(x.gen_faces)
    }
    return {"dim_cap": x.dim_cap, "generators": gens, "faces": faces}


def sset_from_json(data):
    keys = ("dim_cap", "generators", "faces")
    _require(data, keys, "simplicial set")
    _only(data, keys, "simplicial set")
    if not isinstance(data["generators"], dict) or not isinstance(data["faces"], dict):
        raise InputError("simplicial set generators and faces must be JSON objects")
    try:
        generators = {int(d): _ids(ids, "generators") for d, ids in data["generators"].items()}
    except ValueError:
        raise InputError("generators must map dimensions to id lists")
    faces = {}
    for g, refs in data["faces"].items():
        if not isinstance(refs, list):
            raise InputError(f"faces of {g!r} must be a list")
        faces[g] = [SimplexRef.from_json(r) for r in refs]
    return SimplicialSet(data["dim_cap"], generators, faces)


# ---------------------------------------------------------------------------
# categories


def category_to_json(c):
    return {
        "objects": list(c.objects),
        "morphisms": [
            {"id": m, "src": s, "tgt": t} for m, (s, t) in sorted(c.mor.items())
        ],
        "identities": {x: c.identity[x] for x in c.objects},
        "compose": [
            [g, f, h] for (g, f), h in sorted(c.compose_table.items())
        ],
    }


def _cells(rows, what):
    """{id: (src, tgt)} from a JSON list of {"id", "src", "tgt"} rows."""
    if not isinstance(rows, list):
        raise InputError(f"{what}s must be a list of {{id, src, tgt}} rows")
    out = {}
    for row in rows:
        _require(row, ("id", "src", "tgt"), what)
        cell, src, tgt = row["id"], row["src"], row["tgt"]
        if not all(isinstance(v, str) for v in (cell, src, tgt)):
            raise InputError(f"{what} id, src and tgt must be string ids, got {row!r}")
        out[cell] = (src, tgt)
    return out


def _table(rows, what):
    """{(b, a): ba} from a JSON list of [b, a, ba] rows of string ids."""
    if not isinstance(rows, list):
        raise InputError(f"{what} must be a list of [b, a, ba] rows")
    out = {}
    for row in rows:
        if len(_ids(row, f"a {what} row")) != 3:
            raise InputError(f"{what} rows are [b, a, ba], got {row!r}")
        out[(row[0], row[1])] = row[2]
    return out


def _id_map(value, what):
    """A JSON object from string ids to string ids."""
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise InputError(f"{what} must be a JSON object from ids to ids")
    return dict(value)


def category_from_json(data):
    keys = ("objects", "morphisms", "identities", "compose")
    _require(data, keys, "category")
    _only(data, keys, "category")
    return FiniteCategory(
        tuple(_ids(data["objects"], "category objects")),
        _cells(data["morphisms"], "morphism"),
        _id_map(data["identities"], "category identities"),
        _table(data["compose"], "compose"),
    )


def two_category_to_json(c2):
    base = category_to_json(c2.cat)
    return {
        "objects": base["objects"],
        "morphisms": base["morphisms"],
        "identities": base["identities"],
        "compose": base["compose"],
        "two_cells": [
            {"id": a, "src": s, "tgt": t} for a, (s, t) in sorted(c2.two.items())
        ],
        "two_identities": {f: c2.two_identity[f] for f in sorted(c2.one)},
        "vcompose": [[b, a, c] for (b, a), c in sorted(c2.vcompose.items())],
        "hcompose": [[b, a, c] for (b, a), c in sorted(c2.hcompose.items())],
    }


def two_category_from_json(data):
    keys = (
        "objects", "morphisms", "identities", "compose",
        "two_cells", "two_identities", "vcompose", "hcompose",
    )
    _require(data, keys, "two-category")
    _only(data, keys, "two-category")
    return Finite2Category(
        tuple(_ids(data["objects"], "two-category objects")),
        _cells(data["morphisms"], "one-cell"),
        _id_map(data["identities"], "two-category identities"),
        _table(data["compose"], "compose"),
        _cells(data["two_cells"], "two-cell"),
        _id_map(data["two_identities"], "two-category two_identities"),
        _table(data["vcompose"], "vcompose"),
        _table(data["hcompose"], "hcompose"),
    )


# ---------------------------------------------------------------------------
# groups, actions, covers


def group_to_json(g):
    return {
        "elements": list(g.elements),
        "mul": [[a, b, c] for (a, b), c in sorted(g.mul.items())],
    }


def group_from_json(data):
    _require(data, ("elements", "mul"), "group")
    _only(data, ("elements", "mul"), "group")
    elements = _ids(data["elements"], "group elements")
    if not isinstance(data["mul"], list):
        raise InputError("group mul must be a list of [a, b, ab] rows")
    mul = {}
    for row in data["mul"]:
        if len(_ids(row, "a mul row")) != 3:
            raise InputError(f"mul rows are [a, b, ab], got {row!r}")
        mul[(row[0], row[1])] = row[2]
    return FiniteGroup(tuple(elements), mul)


def action_to_json(a):
    data = {
        "group": group_to_json(a.group),
        "carrier": list(a.carrier),
        "act": [[g, x, y] for (g, x), y in sorted(a.act.items())],
    }
    if a.base is not None:
        b_set, pi = a.base
        data["base"] = {"set": list(b_set), "pi": dict(pi)}
    return data


def action_from_json(data):
    _require(data, ("group", "carrier", "act"), "action")
    group = group_from_json(data["group"])
    act = {}
    for row in data["act"]:
        if len(row) != 3:
            raise InputError(f"act rows are [g, x, gx], got {row!r}")
        act[(row[0], row[1])] = row[2]
    base = None
    if "base" in data and data["base"] is not None:
        _require(data["base"], ("set", "pi"), "action base")
        base = (tuple(data["base"]["set"]), dict(data["base"]["pi"]))
    return GroupAction(group, tuple(data["carrier"]), act, base=base)


def cover_to_json(cover):
    return cover.to_json()


def cover_from_json(data):
    _require(data, ("E", "B", "pi"), "cover")
    _only(data, ("E", "B", "pi", "parts"), "cover")
    _ids(data["E"], "cover E")
    _ids(data["B"], "cover B")
    if not isinstance(data["pi"], dict) or not all(
        isinstance(v, str) for v in data["pi"].values()
    ):
        raise InputError("cover pi must be a JSON object from points to base points")
    parts = data.get("parts")
    if parts is not None:
        if not isinstance(parts, list):
            raise InputError("cover parts must be a list of point lists")
        for part in parts:
            _ids(part, "cover part")
    return Cover.from_json(data)


def fraction_to_json(q):
    q = Fraction(q)
    return {"num": q.numerator, "den": q.denominator}
