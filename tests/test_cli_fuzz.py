"""The exit-code contract of the command line on malformed input.

Each example takes a valid corpus file of one kind the command line reads,
mutates it once, and runs it through every subcommand that reads that
kind.  Whatever the mutation, a command exits 0, 1 or 2 and never lets an
exception escape (which a console run would print as a traceback).
"""

import contextlib
import copy
import io as text_io
import json
import os
import tempfile
import traceback

from hypothesis import given, settings
from hypothesis import strategies as st

from hornfill import io
from hornfill.cat import nerve
from hornfill.cli import main
from hornfill.corpus import (
    all_categories,
    all_small_groups,
    all_two_categories,
    cover_of_shape,
    free_transitive_action,
    refine_cover,
)
from hornfill.groupoid import GroupAction


def _valid_inputs():
    c2 = all_small_groups()["c2"]
    free = free_transitive_action(c2)
    anchored = GroupAction(
        free.group, free.carrier, free.act, base=({"pt"}, {x: "pt" for x in free.carrier})
    )
    cover = cover_of_shape((2, 1))
    refined, r = refine_cover(cover, {"b0": 1})
    return {
        # generators up to dimension 3 and ten degenerate (dict) face refs
        "sset": io.sset_to_json(nerve(all_categories()["bc3"], dim_cap=3).sset),
        "category": io.category_to_json(all_categories()["bc2"]),
        "two_category": io.two_category_to_json(all_two_categories()["two_group_c2"]),
        "group": io.group_to_json(c2),
        "action": io.action_to_json(anchored),
        "cover": io.cover_to_json(cover),
        "refined": io.cover_to_json(refined),
        "map": r,
    }


VALID = _valid_inputs()

# every subcommand reading each kind; {x} is the mutated file, other names
# are valid files of that kind
COMMANDS = {
    "sset": [
        ["sset", "info", "{x}"],
        ["sset", "check-kan", "{x}"],
        ["sset", "fillers", "{x}", "--n", "2", "--k", "1"],
        ["cat", "tau", "{x}", "--budget", "2000"],
        ["cat", "hcat", "{x}"],
        ["cat", "maps", "{x}", "{sset}"],
        ["cat", "maps", "{sset}", "{x}"],
    ],
    "category": [["cat", "nerve", "{x}", "--dim-cap", "2"]],
    "two_category": [["cat", "duskin", "{x}", "--dim-cap", "2"]],
    "group": [
        ["descent", "stack", "{cover}", "--group", "{x}"],
        ["descent", "stack", "{cover}", "--group", "{x}", "--presheaf", "constant"],
        ["descent", "stack", "{cover}", "--group", "{x}", "--presheaf", "doubled"],
        ["descent", "cocycles", "{cover}", "--group", "{x}"],
        ["descent", "refine", "{cover}", "{refined}", "{map}", "--group", "{x}"],
    ],
    "action": [
        ["grpd", "quotient", "{x}"],
        ["grpd", "stabilizer", "{x}", "--point", "c0"],
        ["grpd", "torsor", "{x}"],
    ],
    "cover": [
        ["grpd", "cech", "{x}", "--level-cap", "3"],
        ["descent", "sheaf", "{x}"],
        ["descent", "stack", "{x}", "--group", "{group}"],
        ["descent", "stack", "{x}", "--group", "{group}", "--presheaf", "constant"],
        ["descent", "stack", "{x}", "--group", "{group}", "--presheaf", "doubled"],
        ["descent", "cocycles", "{x}", "--group", "{group}"],
        ["descent", "refine", "{x}", "{refined}", "{map}", "--group", "{group}"],
        ["descent", "refine", "{cover}", "{x}", "{map}", "--group", "{group}"],
    ],
}

OTHER_VALUES = ([], ["x"], {}, {"x": "x"}, 0, 2, -1, True, False, None, "", "x")


def _paths(data, prefix=()):
    """Every position in a JSON value, as a tuple of keys and indexes."""
    yield prefix
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _paths(value, prefix + (i,))


_DROP = object()


def _mutated(data, path, replacement):
    """A copy of data with the value at path dropped (replacement is
    _DROP) or replaced."""
    out = copy.deepcopy(data)
    if not path:
        return replacement
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if replacement is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return out


@st.composite
def _mutation(draw):
    kind = draw(st.sampled_from(sorted(COMMANDS)))
    data = VALID[kind]
    path = draw(st.sampled_from(list(_paths(data))))
    choices = list(OTHER_VALUES) + ([_DROP] if path else [])
    replacement = draw(st.sampled_from(choices))
    return kind, _mutated(data, path, replacement)


def _run(argv):
    out, err = text_io.StringIO(), text_io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mutation())
def test_mutated_corpus_files_keep_the_exit_code_contract(mutation):
    kind, data = mutation
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, value in list(VALID.items()) + [("x", data)]:
            files[name] = os.path.join(tmp, f"{name}.json")
            with open(files[name], "w") as fh:
                json.dump(value, fh)
        for template in COMMANDS[kind]:
            argv = [arg.format(**files) for arg in template]
            code, err = _run(argv)
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, data, err)
