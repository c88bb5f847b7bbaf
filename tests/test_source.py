"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import altdimaps

SOURCES = sorted(Path(altdimaps.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # internal checks must raise real exceptions: `assert` vanishes under -O
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_internal_checks_raise_invariant_error():
    # cli.main turns InvariantError into exit code 1; a bare AssertionError
    # would escape it as a traceback
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Raise) and node.exc is not None
             and "AssertionError" in ast.unparse(node.exc)]
    assert found == []


def test_no_function_local_imports():
    # every import is at module level, where the dependencies between the
    # modules can be read at a glance
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in tree.body]
    assert found == []


def test_only_core_parses_rotations():
    # library maps are built from their cycles (build_map); the dart-kind
    # rotation format is parsed by core.map_from_rotations alone
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "core.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and "map_from_rotations" in ast.unparse(node.func)]
    assert found == []


def test_one_polynomial_case_table():
    # T_a and T_i are derived from T_c's table by reflection and
    # triality; the only tables handed to the engine are T_c's and the
    # sixteen-parameter one
    path = next(p for p in SOURCES if p.name == "invariants.py")
    callers = sorted(node.name
                     for node in ast.parse(path.read_text(), str(path)).body
                     if isinstance(node, ast.FunctionDef)
                     for sub in ast.walk(node)
                     if isinstance(sub, ast.Call)
                     and ast.unparse(sub.func) == "_recurse")
    assert callers == ["_clockwise", "extended_eval"]


def test_one_path_through_the_engine():
    # _recurse takes edge numbers and a _Table: orders are numbered by one
    # resolver, and every table, the library's two included, decides its
    # own rows; no side path marks the library's orders or looks up its
    # tables
    path = next(p for p in SOURCES if p.name == "invariants.py")
    body = ast.parse(path.read_text(), str(path)).body
    assigned = {target.id: node.value for node in body
                if isinstance(node, ast.Assign) for target in node.targets
                if isinstance(target, ast.Name)}
    defined = set(assigned) | {node.name for node in body if isinstance(
        node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_Numbers", "_resolve_order", "_decide", "_DECIDED"}
    for name in ("_CLOCKWISE", "_EXTENDED"):
        assert ast.unparse(assigned[name]).startswith("_Table(("), name
    functions = {node.name: node for node in body
                 if isinstance(node, ast.FunctionDef)}
    assert not [sub for sub in ast.walk(functions["_recurse"])
                if isinstance(sub, ast.Call)
                and ast.unparse(sub.func) == "isinstance"]
    passed = sorted((name, ast.unparse(sub.args[2]))
                    for name, node in functions.items()
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Call)
                    and ast.unparse(sub.func) == "_recurse")
    assert passed == [("_clockwise", "_CLOCKWISE"), ("extended_eval", "_EXTENDED")]
    # _Table.rows is the one store keyed by class code: _recurse asks
    # table.row for every state's row and makes no dict or subscript
    # store of its own, and only _Table writes rows
    recurse = functions["_recurse"]
    assert not [sub for sub in ast.walk(recurse)
                if isinstance(sub, (ast.Dict, ast.DictComp))
                or isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store)
                or isinstance(sub, ast.Call) and ast.unparse(sub.func) == "dict"]
    assert "table.row" in {ast.unparse(sub) for sub in ast.walk(recurse)
                           if isinstance(sub, ast.Attribute)}
    writers = [node.name for node in body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and any(isinstance(sub, (ast.Attribute, ast.Subscript))
                       and isinstance(sub.ctx, ast.Store)
                       and "rows" in ast.unparse(sub) for sub in ast.walk(node))]
    assert writers == ["_Table"]


def test_alt_images_are_read_off_the_darts():
    # alt_a and alt_i are pairs of products of ρ⁻¹ and α on the darts of
    # P, like alt_c; neither is built from alt_c by a symmetry
    path = next(p for p in SOURCES if p.name == "invariants.py")
    derived = {"alt_c", "trial", "trial_power", "reflect"}
    bodies = {node.name: node
              for node in ast.parse(path.read_text(), str(path)).body
              if isinstance(node, ast.FunctionDef)
              and node.name in ("alt_a", "alt_i")}
    assert sorted(bodies) == ["alt_a", "alt_i"]
    found = sorted(f"{name}: {ast.unparse(sub.func)}"
                   for name, node in bodies.items()
                   for sub in ast.walk(node)
                   if isinstance(sub, ast.Call)
                   and ast.unparse(sub.func) in derived)
    assert found == []


def test_one_commutation_kernel():
    # the pair prediction is one kernel on the rotated triple: the old
    # exceptional-case helper is gone, and only commute_check, which
    # reports the prediction beside the actual answer, goes back through
    # the labelled predict_commute
    path = next(p for p in SOURCES if p.name == "minors.py")
    functions = [node for node in ast.parse(path.read_text(), str(path)).body
                 if isinstance(node, ast.FunctionDef)]
    names = [node.name for node in functions]
    assert "_pattern_commutes" in names
    assert "_exceptional_pair_commutes" not in names
    callers = sorted(node.name for node in functions
                     for sub in ast.walk(node)
                     if isinstance(sub, ast.Call)
                     and ast.unparse(sub.func) == "predict_commute")
    assert callers == ["commute_check"]


def test_minors_renumber_in_one_place():
    # a minor stays an image triple over G's numbering: commute_check
    # compares triples and builds no map, and only _live_part renumbers
    path = next(p for p in SOURCES if p.name == "minors.py")
    functions = {node.name: node
                 for node in ast.parse(path.read_text(), str(path)).body
                 if isinstance(node, ast.FunctionDef)}

    def calls(node):
        return {ast.unparse(sub.func) for sub in ast.walk(node)
                if isinstance(sub, ast.Call)}

    assert not calls(functions["commute_check"]) & {"reduce_seq", "reduce_map"}
    assert [name for name, node in functions.items()
            if "_image_map" in calls(node)] == ["_live_part"]


def test_only_altdimap_writes_s1():
    # a map is made one way, AltDimap(σ_ω, σ_ω²), and derives σ₁ in
    # AltDimap.s1: nothing else in the library writes it
    def writes(node):
        return [sub for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and sub.attr == "_s1"
                and isinstance(sub.ctx, ast.Store)]

    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    assert sum(len(writes(tree)) for tree in trees.values()) == 2
    altdimap = next(node for node in trees["core.py"].body
                    if isinstance(node, ast.ClassDef) and node.name == "AltDimap")
    assert sorted(node.name for node in altdimap.body
                  if isinstance(node, ast.FunctionDef) and writes(node)) \
        == ["__init__", "s1"]


def test_every_minor_is_built():
    # _live_part builds every minor that leaves the library, G's own
    # (nothing reduced) included, by _image_map
    path = next(p for p in SOURCES if p.name == "minors.py")
    live_part = next(node for node in ast.parse(path.read_text(), str(path)).body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "_live_part")
    returns = [sub for sub in ast.walk(live_part) if isinstance(sub, ast.Return)]
    assert len(returns) == 1
    value = returns[0].value
    assert isinstance(value, ast.Call) and ast.unparse(value.func) == "_image_map"



def test_enumeration_codes_image_tuples():
    # the census and the posies code candidates as image tuples in one
    # loop and build a map only for each representative, by _image_map
    path = next(p for p in SOURCES if p.name == "catalog.py")
    functions = {node.name: node
                 for node in ast.parse(path.read_text(), str(path)).body
                 if isinstance(node, ast.FunctionDef)}

    def calls(node):
        return {ast.unparse(sub.func) for sub in ast.walk(node)
                if isinstance(sub, ast.Call)}

    builders = {"AltDimap", "AltDimap._of", "Perm", "Perm._of",
                "Perm._on_cycles", "build_map", "canonical_code", "reflect"}
    for name in ("_first_per_code", "_coded_maps", "posies"):
        assert not calls(functions[name]) & builders, name
    for name in ("_coded_maps", "posies"):
        assert {"_first_per_code", "_image_map"} <= calls(functions[name])

def test_plane_graph_errors_name_a_document_line():
    # every error of parse_plane_graph is raised at a line of the
    # document; only parse_map's missing-line errors stay at line 0
    path = next(p for p in SOURCES if p.name == "textio.py")
    parser = next(node for node in ast.parse(path.read_text(), str(path)).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "parse_plane_graph")
    errors = [node for node in ast.walk(parser)
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "DocumentError"]
    assert errors
    found = [f"textio.py:{node.lineno}" for node in errors
             if isinstance(node.args[0], ast.Constant) and node.args[0].value == 0]
    assert found == []


def test_no_plane_graph_class():
    # the alt images and the oracle take any EmbeddedGraph; genus 0 is
    # checked once, by textio.parse_plane_graph
    found = [path.name for path in SOURCES if "PlaneGraph" in path.read_text()]
    assert found == []


def test_textio_imports_nothing_from_invariants():
    path = next(p for p in SOURCES if p.name == "textio.py")
    found = [f"textio.py:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and "invariants" in ast.unparse(node)]
    assert found == []


def test_no_size_cap_parameters():
    # each size cap is one module constant, checked in one place
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.FunctionDef, ast.Lambda))
             and any(a.arg == "max_edges"
                     for a in node.args.posonlyargs + node.args.args
                     + node.args.kwonlyargs)]
    assert found == []


def test_the_library_picks_the_default_edge_order():
    # altdimaps tutte passes an order only when --order gives one
    path = next(p for p in SOURCES if p.name == "cli.py")
    found = [f"cli.py:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and "frontier_order" in ast.unparse(node.func)]
    assert found == []


def _sorts_by_repr(node: ast.Call) -> bool:
    """Whether the call sorts by repr: a repr key, or sorted(map(repr, …))."""
    if any(kw.arg == "key" and "repr" in ast.unparse(kw.value)
           for kw in node.keywords):
        return True
    return (ast.unparse(node.func) == "sorted" and bool(node.args)
            and isinstance(node.args[0], ast.Call)
            and ast.unparse(node.args[0].func) == "map"
            and bool(node.args[0].args)
            and "repr" in ast.unparse(node.args[0].args[0]))


def test_sorts_by_repr_is_seen_in_both_forms():
    def calls(source):
        return [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call)]

    for source in ("sorted(xs, key=repr)", "xs.sort(key=lambda x: repr(x))",
                   "sorted(map(repr, xs))", "sorted(map(_canonical_repr, xs))"):
        assert any(map(_sorts_by_repr, calls(source))), source
    for source in ("sorted(xs)", "sorted(map(str, xs))", "list(map(repr, xs))"):
        assert not any(map(_sorts_by_repr, calls(source))), source


def test_only_perm_sorts_labels_by_repr():
    # one label order: every other module numbers labels by perm.numbering
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "perm.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and _sorts_by_repr(node)]
    assert found == []


def test_one_integer_argument_check():
    # an integer argument is refused as a bool, or as no int, or out of
    # range, by perm._int_arg alone; cli._json_complex refuses a bool too,
    # but as a JSON number, which may be a float
    found = sorted({f"{path.name}:{node.name}"
                    for path in SOURCES
                    for node in ast.walk(ast.parse(path.read_text(), str(path)))
                    if isinstance(node, ast.FunctionDef)
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Call)
                    and ast.unparse(sub.func) == "isinstance"
                    and "bool" in ast.unparse(sub.args[1])})
    assert found == ["cli.py:_json_complex", "perm.py:_int_arg"]


def test_core_walks_no_cycle_of_its_own():
    # the incidence readers read the in-stars off Perm.cycles
    path = next(p for p in SOURCES if p.name == "core.py")
    names = [node.name for node in ast.parse(path.read_text(), str(path)).body
             if isinstance(node, ast.FunctionDef)]
    assert "map_stats" in names and "_cycle" not in names


def test_a_fresh_import_frees_the_last_one():
    # Re-importing the package (as a benchmark set-up does) must leave the
    # old modules collectable.  typing caches the generics built at import
    # time, so one built over a class of the package keeps that class, its
    # module and everything the module imports alive.
    script = """
import gc, importlib, sys
for _ in range(3):
    for name in [n for n in sys.modules if n.split(".")[0] == "altdimaps"]:
        del sys.modules[name]
    importlib.import_module("altdimaps")
gc.collect()
classes = [o for o in gc.get_objects()
           if isinstance(o, type) and o.__module__.startswith("altdimaps.")]
names = sorted(c.__module__ + "." + c.__qualname__ for c in classes)
sys.exit(len(names) != len(set(names)))
"""
    src = str(Path(altdimaps.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
    assert done.returncode == 0
