"""Properties of the package source as a whole."""

import ast
import importlib
import inspect
import pathlib

import hornfill


def test_no_check_lives_in_an_assert():
    # python -O strips assert statements, and every check must survive it
    modules = sorted(pathlib.Path(hornfill.__file__).parent.rglob("*.py"))
    assert "sset.py" in {path.name for path in modules}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_name_the_benchmark_wraps_resolves():
    # the benchmark's tracer wraps these names from outside the package;
    # a rename in src/ would break traced benchmark runs silently
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = {}
    exec(compile(path.read_text(), str(path), "exec"), spans)
    names = list(spans["SPANNED"]) + list(spans["COUNTED"].values())
    assert len(names) > 20
    missing = []
    for module, path in names:
        owner = importlib.import_module(f"hornfill.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{module}.{path}")
    assert missing == []


def _nodes(node, kind, owner=()):
    """(dotted names of the enclosing classes and functions, child) for
    each child of type `kind` under node."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = owner + (child.name,)
        elif isinstance(child, kind):
            yield ".".join(owner), child
        yield from _nodes(child, kind, inner)


def test_categories_groups_and_two_categories_are_checked_when_built():
    # no constructor of these takes a check knob, and no module marks a
    # structure as checked: every one in hand has passed its laws
    from hornfill.cat import Finite2Category, FiniteCategory
    from hornfill.groupoid import FiniteGroup, FiniteGroupoid
    for cls in (FiniteCategory, FiniteGroupoid, FiniteGroup, Finite2Category):
        assert "check" not in inspect.signature(cls).parameters, cls
    package = pathlib.Path(hornfill.__file__).parent
    marks = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_checked"
        or isinstance(node, ast.Constant) and node.value == "_checked"
    ]
    assert marks == []


def test_unchecked_level_tables_are_frozen():
    # is_groupoid_object's generator shortcut is exact only on objects that
    # satisfy the simplicial identities.  Each producer here skips their
    # check on a proof in its docstring, with `validate` as the oracle in
    # its tests; a new one must come with both before it joins the list.
    before_check = {"SimplicialObject": 4, "LevelModel": 5, "SimplicialSet": 3}  # positional
    package = pathlib.Path(hornfill.__file__).parent
    unchecked = set()
    for path in sorted(package.glob("*.py")):
        for owner, call in _nodes(ast.parse(path.read_text(), filename=str(path)), ast.Call):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in before_check:
                continue
            check = [k.value for k in call.keywords if k.arg == "check"]
            check += call.args[before_check[name]:]
            if any(not (isinstance(v, ast.Constant) and v.value is True) for v in check):
                unchecked.add(f"{path.name}:{owner}")
    assert unchecked == {"sset.py:SimplicialSet._level_zero", "sset.py:LevelModel.__init__",
                         "cat.py:nerve", "cat.py:NerveResult.model",
                         "cat.py:duskin_nerve", "cat.py:DuskinResult.model", "cat.py:mapping_space",
                         "sset.py:product_structure",
                         "groupoid.py:cech_nerve",
                         "groupoid.py:action_bar_object"}


def test_only_a_simplicial_set_writes_its_level_table():
    # a set's level table comes from its own calculus alone; no producer
    # installs rows of its own as a set's table
    package = pathlib.Path(hornfill.__file__).parent
    writers = set()
    for path in sorted(package.glob("*.py")):
        for owner, attr in _nodes(ast.parse(path.read_text(), filename=str(path)), ast.Attribute):
            if attr.attr == "_level_table" and isinstance(attr.ctx, ast.Store):
                writers.add(f"{path.name}:{owner}")
    assert writers == {"sset.py:SimplicialSet.__init__", "sset.py:SimplicialSet.table",
                       "sset.py:SimplicialSet.validate"}


def test_only_a_mapping_space_and_the_nerve_oracles_build_a_level_model():
    # every other set is presented by its generators; a LevelModel strips
    # the degenerate elements off a whole level table, and is built only
    # by the mapping space and the oracle routes of the two nerves
    package = pathlib.Path(hornfill.__file__).parent
    builders = set()
    for path in sorted(package.glob("*.py")):
        for owner, call in _nodes(ast.parse(path.read_text(), filename=str(path)), ast.Call):
            if getattr(call.func, "id", getattr(call.func, "attr", None)) == "LevelModel":
                builders.add(f"{path.name}:{owner}")
    assert builders == {"cat.py:NerveResult.model", "cat.py:DuskinResult.model",
                        "cat.py:mapping_space"}


def test_only_the_frozen_producers_append_unchecked_levels():
    # add_level appends rows without checking them; the constructor checks
    # a caller's rows, and each producer here proves its own in a
    # docstring.  A new caller must come with a proof and an oracle test.
    package = pathlib.Path(hornfill.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for owner, call in _nodes(ast.parse(path.read_text(), filename=str(path)), ast.Call):
            if getattr(call.func, "attr", getattr(call.func, "id", None)) == "add_level":
                callers.add(f"{path.name}:{owner}")
    assert callers == {"sset.py:SimplicialObject.__init__", "sset.py:SimplicialSet.table",
                       "sset.py:SimplicialSet.validate"}


def _function(module, name):
    """The top-level def `name` of hornfill/`module`.py, parsed; a dotted
    name `Class.method` is a method of a top-level class."""
    path = pathlib.Path(hornfill.__file__).parent / f"{module}.py"
    node = ast.parse(path.read_text(), filename=str(path))
    for part in name.split("."):
        node = next(n for n in node.body
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part)
    return node


def _called_names(node):
    return {
        getattr(call.func, "id", getattr(call.func, "attr", None))
        for call in ast.walk(node) if isinstance(call, ast.Call)
    }


def test_the_map_search_does_not_recurse():
    # a source with more generators than Python's recursion limit, or a
    # gluing with more free entries, must not crash a search: the map
    # search and the gluing search each backtrack on the explicit stack of
    # the one core, the join extends its tuples one slot at a time, and
    # none defines a recursion of its own
    searches = (("sset", "_map_search"), ("sset", "SimplicialObject.join"),
                ("descent", "_descent_objects"), ("sset", "_backtrack"))
    for module, name in searches:
        search = _function(module, name)
        recursive = [
            f.name for f in ast.walk(search)
            if isinstance(f, ast.FunctionDef) and f.name in _called_names(f)
        ]
        assert recursive == [], name
        if name in ("_map_search", "_descent_objects"):
            assert "_backtrack" in _called_names(search), name


def test_homomorphism_and_isomorphism_searches_reach_the_one_map_search():
    # group and category isomorphisms and the corpus's group actions are
    # maps of nerves; none may run a search of its own beside it
    one_search = {"categories_isomorphic", "is_isomorphic", "enumerate_functors"}
    for module, name in (("groupoid", "groups_isomorphic"), ("cat", "categories_isomorphic"),
                         ("corpus", "all_actions")):
        f = _function(module, name)
        assert _called_names(f) & one_search, name
        assert [n for n in ast.walk(f) if isinstance(n, ast.FunctionDef)] == [f], name


def test_every_json_text_goes_through_io_dumps():
    # io._write is the one writer, under io.dumps and io.sset_dumps; json.dumps
    # is their oracle in tests/test_io.py
    writers = {"dump", "dumps"}
    found = []
    for path in sorted(pathlib.Path(hornfill.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute) and node.attr in writers
                and isinstance(node.value, ast.Name) and node.value.id == "json"
            ) or (
                isinstance(node, ast.ImportFrom) and node.module == "json"
                and writers & {a.name for a in node.names}
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports names to re-export them; every other module
    # must use each name its module-level imports bind
    package = pathlib.Path(hornfill.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


# Renaming or removing a public name is an API change: update this list
# and say so in CHANGES.md.
PUBLIC_NAMES = [
    "CapacityError", "ConsistencyError", "Cover", "EngineError", "FinMap",
    "Finite2Category", "FiniteCategory", "FiniteGroup", "FiniteGroupoid",
    "Functor", "GroupAction", "InputError", "KanReport",
    "LevelModel", "SimplexRef", "SimplicialMap", "SimplicialObject",
    "SimplicialSet", "ValidationError", "action_bar_object",
    "categories_isomorphic", "cech_descent_skeleton", "cech_nerve",
    "cech_stack_report", "check_sheaf_sets",
    "check_stack_groupoids", "check_torsor", "classify",
    "constant_bg_presheaf", "cyclic_group", "descent_groupoid",
    "direct_product", "duskin_nerve", "enumerate_functors", "enumerate_maps",
    "equivalence_check", "fundamental_category", "groupoid_cardinality",
    "groupoid_of_groups", "groups_isomorphic", "homotopy_category",
    "horn_fillers", "horn_maps", "horn_tuples", "is_groupoid_object",
    "is_isomorphic", "is_isomorphism_edge", "mapping_space", "nerve",
    "normalize", "one_object_two_group", "product", "quotient_groupoid",
    "refinement_invariance", "skeleton", "split_two_group", "stabilizer",
    "standard_simplex", "subcomplex_of_simplex", "symmetric_group",
    "torsor_comparison", "torsor_presheaf", "trivial_group",
    "truncation_agreement_sets", "two_category_from_category",
    "walking_invertible_two_cell", "walking_two_cell",
]


def test_public_names_are_frozen():
    assert sorted(hornfill.__all__) == PUBLIC_NAMES
    assert [n for n in PUBLIC_NAMES if not hasattr(hornfill, n)] == []
