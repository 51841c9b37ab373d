"""JSON formats for every object kind, and deterministic writers.

All dumps are byte-deterministic: keys sorted, two-space indent, one
trailing newline.  Loaders validate shape up front so malformed input
fails as InputError before any construction work starts.
"""

import json
import re
from fractions import Fraction

from .cat import Finite2Category, FiniteCategory
from .descent import Cover
from .errors import InputError
from .groupoid import FiniteGroup, GroupAction
from .sset import SimplexRef, SimplicialSet, _json_pair


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


def _dimension(key):
    """A generator dimension key: a non-negative integer written plainly,
    so that no two keys name one dimension."""
    if not (isinstance(key, str) and re.fullmatch("0|[1-9][0-9]*", key)):
        raise InputError(f"generators must map dimensions to id lists; {key!r} is no dimension")
    return int(key)


def _face_refs(refs, known):
    """The SimplexRefs of a JSON face list, each distinct one built once
    per load and kept in `known`: a string ref keyed by the string, a
    degenerate ref by (gen, degs) only after this occurrence has passed
    its own checks, so a bool or a float in a word is refused every time."""
    out = []
    for r in refs:
        if isinstance(r, str):
            ref = known.get(r)
            if ref is None:
                ref = known[r] = SimplexRef(r)
        else:
            key = _json_pair(r)
            ref = known.get(key)
            if ref is None:
                ref = known[key] = SimplexRef(*key)
        out.append(ref)
    return out


def sset_from_json(data):
    keys = ("dim_cap", "generators", "faces")
    _require(data, keys, "simplicial set")
    _only(data, keys, "simplicial set")
    if not isinstance(data["generators"], dict) or not isinstance(data["faces"], dict):
        raise InputError("simplicial set generators and faces must be JSON objects")
    generators = {_dimension(d): _ids(ids, "generators") for d, ids in data["generators"].items()}
    faces, known = {}, {}
    for g, refs in data["faces"].items():
        if not isinstance(refs, list):
            raise InputError(f"faces of {g!r} must be a list")
        faces[g] = _face_refs(refs, known)
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


def _table(rows, what, shape="[b, a, ba]"):
    """{(b, a): ba} from a JSON list of `shape` rows of three string ids."""
    if not isinstance(rows, list):
        raise InputError(f"{what} must be a list of {shape} rows")
    out = {}
    for row in rows:
        if len(_ids(row, f"a {what} row")) != 3:
            raise InputError(f"{what} rows are {shape}, got {row!r}")
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
    return FiniteGroup(tuple(elements), _table(data["mul"], "group mul", "[a, b, ab]"))


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
    _only(data, ("group", "carrier", "act", "base"), "action")
    group = group_from_json(data["group"])
    carrier = _ids(data["carrier"], "action carrier")
    act = _table(data["act"], "action act", "[g, x, gx]")
    base = None
    if data.get("base") is not None:
        _require(data["base"], ("set", "pi"), "action base")
        _only(data["base"], ("set", "pi"), "action base")
        b_set = _ids(data["base"]["set"], "action base set")
        base = (tuple(b_set), _id_map(data["base"]["pi"], "action base pi"))
    return GroupAction(group, tuple(carrier), act, base=base)


def cover_to_json(cover):
    return cover.to_json()


def cover_from_json(data):
    _require(data, ("E", "B", "pi"), "cover")
    _only(data, ("E", "B", "pi", "parts"), "cover")
    _ids(data["E"], "cover E")
    _ids(data["B"], "cover B")
    _id_map(data["pi"], "cover pi")
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
