"""JSON formats for every object kind, and deterministic writers.

All dumps are byte-deterministic: keys sorted, two-space indent, one
trailing newline.  `dumps` writes the bytes of
`json.dumps(data, indent=2, sort_keys=True)` directly, because on
Python 3.11 the standard library uses its C encoder only without
`indent` and runs a chain of Python generators with it.  Strings are
still escaped by the standard library's C escaper, and the `json.dumps`
call is the writer's oracle in the tests.  `sset_dumps` writes the bytes
of `dumps(sset_to_json(x))` for a simplicial set, with the text of each
distinct face ref built once; `dumps(sset_to_json(x))` is its oracle in
the tests.  Loaders validate shape up front so malformed input fails as
InputError before any construction work starts.
"""

import json
import re
from fractions import Fraction

from .cat import Finite2Category, FiniteCategory
from .descent import Cover
from .errors import InputError
from .groupoid import FiniteGroup, GroupAction
from .sset import _INT, SimplexRef, SimplicialSet, _json_pair


_escape = json.encoder.encode_basestring_ascii
_STR = frozenset((str,))


def dumps(data):
    """json.dumps(data, indent=2, sort_keys=True) + "\\n", byte for byte.

    Values are str, int, bool, None, list, tuple and dict with str keys,
    of exactly those types; anything else is a TypeError."""
    out = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, nl, out):
    """Append the JSON text of value to out; nl is the newline and indent
    of the line the value starts on."""
    t = type(value)
    if t is str:
        out.append(_escape(value))
    elif t is list or t is tuple:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        if _STR.issuperset(map(type, value)):
            out.append("[" + inner + ("," + inner).join(map(_escape, value)) + nl + "]")
            return
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict:
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, v in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            out.append(sep + _escape(key) + ": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif t is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


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


def _generators_json(x):
    return {str(d): list(x.generators(d)) for d in range(x.dim_cap + 1) if x.generators(d)}


def sset_to_json(x):
    gens = _generators_json(x)
    faces = {
        g: [ref.to_json() for ref in x.gen_faces[g]]
        for g in sorted(x.gen_faces)
    }
    return {"dim_cap": x.dim_cap, "generators": gens, "faces": faces}


def sset_dumps(x):
    """dumps(sset_to_json(x)), byte for byte and error for error, with the
    text of each face ref built once.

    A nerve's face lists name the same few simplices of the level below
    over and over, so each ref is written by `_write` at the face-list
    indent the first time it occurs and its text is reused after that.
    The texts are keyed by the ref's identity, not its value: SimplexRef
    equality is the tuple's, so a ref to a generator True equals a ref to
    a generator 1 and would share its text, while `dumps` writes `true`.
    (A degeneracy letter False is written 0 by `SimplexRef.to_json`, so
    it loads back.)  A nerve, a Duskin nerve and a loaded set hold one
    object per distinct ref."""
    gens = _generators_json(x)
    out = ['{\n  "dim_cap": ']
    _write(x.dim_cap, "\n  ", out)
    out.append(',\n  "faces": ')
    texts = {}
    sep = "{\n    "
    for g in sorted(x.gen_faces):
        if type(g) is not str:
            raise TypeError(f"JSON keys must be str, not {type(g).__name__}")
        items = []
        for ref in x.gen_faces[g]:
            text = texts.get(id(ref))
            if text is None:
                buf = []
                _write(ref.to_json(), "\n      ", buf)
                text = texts[id(ref)] = "".join(buf)
            items.append(text)
        body = "[\n      " + ",\n      ".join(items) + "\n    ]" if items else "[]"
        out.append(sep + _escape(g) + ": " + body)
        sep = ",\n    "
    out.append("\n  }" if x.gen_faces else "{}")
    out.append(',\n  "generators": ')
    _write(gens, "\n  ", out)
    out.append("\n}\n")
    return "".join(out)


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
    its own checks, so a bool or a float in a word is refused every time.
    A {"gen": str, "deg": list of exact ints} equal to a kept key is that
    checked word and is looked up directly; anything else is checked."""
    out = []
    for r in refs:
        if isinstance(r, str):
            ref = known.get(r)
            if ref is None:
                ref = known[r] = SimplexRef(r)
        else:
            ref = None
            if (
                type(r) is dict and len(r) == 2 and type(r.get("gen")) is str
                and type(deg := r.get("deg")) is list and _INT.issuperset(map(type, deg))
            ):
                ref = known.get((r["gen"], tuple(deg)))
            if ref is None:
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
        if cell in out:
            raise InputError(f"{what} {cell!r} is listed twice")
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
        if (row[0], row[1]) in out:
            raise InputError(f"{what} lists ({row[0]!r}, {row[1]!r}) twice")
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
