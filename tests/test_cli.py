"""The command-line surface: every subcommand plus exit codes."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import altdimaps.cli
from altdimaps import (InvariantError, alt_a, alt_c, alt_i,
                       build_map, invariants, reflect, trial_power)
from altdimaps.catalog import free_loops, posy, ultraloop
from altdimaps.cli import TUTTE_MAX_EDGES, main
from altdimaps.textio import serialize_map

from conftest import (K4_TORUS, embedded, grid_document, grid_rotations,
                      plane_document, witness_a)

TRIANGLE_DOC = """planegraph triangle
vertex u: a0 c1
vertex v: b0 a1
vertex w: c0 b1
edge a: a0 a1
edge b: b0 b1
edge c: c0 c1
"""


@pytest.fixture()
def posy_file(tmp_path):
    p = tmp_path / "posy1.map"
    p.write_text(serialize_map(posy(1), "posy1"))
    return str(p)


@pytest.fixture()
def triangle_file(tmp_path):
    p = tmp_path / "triangle.pg"
    p.write_text(TRIANGLE_DOC)
    return str(p)


def run(capsys, *argv):
    """Exit code (a usage error's SystemExit read as its code), stdout and
    stderr of one command."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_stats(capsys, posy_file):
    rc, out, _ = run(capsys, "stats", posy_file)
    assert rc == 0
    assert out.strip() == "V=1 E=3 af=1 cf=1 k=1 genus=1"


def test_trial_roundtrip(capsys, posy_file):
    rc, out, _ = run(capsys, "trial", posy_file, "--power", "3")
    assert rc == 0
    assert "sigma_omega (0 1 2)" in out


def test_reduce(capsys, posy_file):
    rc, out, _ = run(capsys, "reduce", posy_file, "--edge", "0", "--mu", "w")
    assert rc == 0
    assert "edges 1 2" in out


def test_classify(capsys, posy_file):
    rc, out, _ = run(capsys, "classify", posy_file)
    assert rc == 0
    assert out.count("1+w+w2-semiloop") == 3


def test_classify_single_kinds(capsys, tmp_path):
    # one edge of each of the 1-loop, ω-loop, 1-semiloop and ω-semiloop
    # kinds, none of them more than one kind
    p = tmp_path / "m.map"
    p.write_text("map m\nedges 0 1 2 3\nsigma_omega (0 1 2)\n"
                 "sigma_omega2 (0 1)(2 3)\n")
    rc, out, _ = run(capsys, "classify", str(p))
    assert rc == 0
    assert out.splitlines() == ["0\tw-semiloop", "1\t1-loop",
                                "2\t1-semiloop", "3\tw-loop"]


def test_commute(capsys, posy_file):
    rc, out, _ = run(capsys, "commute", posy_file, "--e", "0", "--mu", "1",
                     "--f", "1", "--nu", "w")
    assert rc == 0
    assert "actual: true" in out and "predicted: true" in out


def test_commute_fails(capsys, tmp_path):
    # in witness_a, edge 1 = σ_ω(e) makes {[1]e, [ω]1} the one pattern
    # that can fail, and neither edge is degenerate enough for it to commute
    p = tmp_path / "witness_a.map"
    p.write_text(serialize_map(witness_a(), "witness_a"))
    rc, out, _ = run(capsys, "commute", str(p), "--e", "e", "--mu", "1",
                     "--f", "1", "--nu", "w")
    assert rc == 0
    assert "actual: false" in out and "predicted: false" in out


def test_enumerate_two_edges(capsys):
    rc, out, _ = run(capsys, "enumerate", "--edges", "2")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "count 4"


def test_enumerate_above_the_cap(capsys):
    rc, _, err = run(capsys, "enumerate", "--edges", "9")
    assert rc == 1
    assert "capped at 6 edges" in err


def test_enumerate_rejects_a_negative_count(capsys):
    rc, out, err = run(capsys, "enumerate", "--edges", "-1")
    assert rc == 1
    assert out == ""
    assert "-1" in err


def test_enumerate_self_trial(capsys):
    rc, out, _ = run(capsys, "enumerate", "--edges", "2",
                     "--filter", "self-trial")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "count 1"


def test_genus_test_witness(capsys, posy_file):
    rc, out, _ = run(capsys, "genus-test", posy_file, "--k", "1")
    assert rc == 0
    assert "genus_below_k: false" in out
    assert "witness: " in out and "witness: none" not in out


def test_genus_test_rejects_negative_k(capsys, posy_file):
    rc, out, err = run(capsys, "genus-test", posy_file, "--k", "-1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


def test_genus_test_above_the_cap(capsys, tmp_path):
    doc = tmp_path / "loops9.map"
    doc.write_text(serialize_map(free_loops(9), "loops9"))
    rc, out, err = run(capsys, "genus-test", str(doc), "--k", "1")
    assert rc == 1 and out == ""
    assert err == "error: minor closure capped at 8 edges\n"


def test_genus_test_k0_has_an_ultraloop_witness(capsys, posy_file):
    rc, out, _ = run(capsys, "genus-test", posy_file, "--k", "0")
    assert rc == 0
    assert "genus_below_k: false" in out
    assert "witness: none" not in out


def test_tutte_triangle(capsys, triangle_file):
    rc, out, _ = run(capsys, "tutte", triangle_file, "--variant", "c")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == lines[1] == "x^2 + x + y"
    assert lines[2] == "equal: true"


def test_tutte_variants_agree(capsys, triangle_file):
    for variant in ("a", "i"):
        rc, out, _ = run(capsys, "tutte", triangle_file, "--variant", variant)
        assert rc == 0
        assert out.strip().endswith("equal: true")


def test_tutte_isolated_vertex(capsys, tmp_path):
    # a dartless vertex changes neither the Tutte polynomial nor the map
    doc = tmp_path / "edge_and_point.pg"
    doc.write_text("planegraph edge_and_point\nvertex u: a0\nvertex v: a1\n"
                   "vertex z:\nedge a: a0 a1\n")
    for variant in ("c", "a", "i"):
        rc, out, _ = run(capsys, "tutte", str(doc), "--variant", variant)
        assert rc == 0
        assert out.strip().splitlines() == ["x", "x", "equal: true"]


def test_tutte_full_order_every_variant(capsys, triangle_file):
    # each plane edge expands to the two image edges of its variant
    for variant in ("c", "a", "i"):
        for order in (["a", "b", "c"], ["c", "a", "b"]):
            rc, out, err = run(capsys, "tutte", triangle_file, "--variant",
                               variant, "--order", *order)
            assert rc == 0, err
            assert out.strip().endswith("equal: true")


def test_tutte_order_must_name_every_edge(capsys, triangle_file):
    # an empty --order is an order too, and not a permutation of the edges
    for order in ([], ["a", "b"]):
        rc, out, err = run(capsys, "tutte", triangle_file, "--order", *order)
        assert rc == 1 and out == ""
        assert err == "error: order must be a permutation of the edge set\n"


def test_tutte_grid_5x5(capsys, tmp_path):
    # 40 edges, within the command's cap
    doc = tmp_path / "grid5x5.pg"
    doc.write_text(grid_document(5, 5))
    for variant in ("c", "a", "i"):
        rc, out, err = run(capsys, "tutte", str(doc), "--variant", variant)
        assert rc == 0, err
        assert out.strip().splitlines()[-1] == "equal: true"


def test_tutte_variants_c_and_i_take_the_library_order(capsys, tmp_path,
                                                     monkeypatch):
    # no order passed: T_c sweeps alt_c(P) and T_i sweeps
    # trial²(reflect(alt_i(P))), each in its own frontier order
    rotations = grid_rotations(3, 3, diagonals=True)
    doc = tmp_path / "tri3x3.pg"
    doc.write_text(plane_document("tri3x3", rotations))
    p = embedded(rotations)
    asked = []
    frontier_order = invariants.frontier_order
    monkeypatch.setattr(invariants, "frontier_order",
                        lambda g: asked.append(g) or frontier_order(g))
    for variant, swept in (("c", alt_c(p)),
                           ("i", trial_power(reflect(alt_i(p)), 2))):
        asked.clear()
        rc, out, err = run(capsys, "tutte", str(doc), "--variant", variant)
        assert rc == 0, err
        assert out.strip().splitlines()[-1] == "equal: true"
        assert asked == [swept], variant


def test_tutte_variant_a_takes_the_library_order(capsys, tmp_path,
                                                monkeypatch):
    # no order passed: T_a sweeps reflect(alt_a(P)) in its own frontier
    # order; the triangulated 4×5 grid (43 edges) is the slowest graph
    # under the cap for T_a in that order
    rotations = grid_rotations(4, 5, diagonals=True)
    doc = tmp_path / "tri4x5.pg"
    doc.write_text(plane_document("tri4x5", rotations))
    p = embedded(rotations)
    asked = []
    frontier_order = invariants.frontier_order
    monkeypatch.setattr(invariants, "frontier_order",
                        lambda g: asked.append(g) or frontier_order(g))
    rc, out, err = run(capsys, "tutte", str(doc), "--variant", "a")
    assert rc == 0, err
    assert out.strip().splitlines()[-1] == "equal: true"
    assert asked == [reflect(alt_a(p))]


def test_tutte_above_the_cap_exits_1(capsys, tmp_path):
    names = [f"e{i:03d}" for i in range(TUTTE_MAX_EDGES + 1)]
    doc = tmp_path / "theta.pg"
    doc.write_text(plane_document("theta", {
        "u": [(e, 0) for e in names], "v": [(e, 1) for e in names[::-1]]}))
    rc, out, err = run(capsys, "tutte", str(doc))
    assert rc == 1 and out == ""
    assert err == f"error: Tutte recursion capped at {TUTTE_MAX_EDGES} edges\n"


def test_tutte_on_a_non_plane_document_exits_1(capsys, tmp_path):
    doc = tmp_path / "k4_torus.pg"
    doc.write_text(plane_document("k4_torus", K4_TORUS))
    for variant in ("c", "a", "i"):
        rc, out, err = run(capsys, "tutte", str(doc), "--variant", variant)
        assert rc == 1 and out == ""
        assert err == "error: total genus 1; not plane\n"


def test_export_json(capsys, posy_file):
    rc, out, _ = run(capsys, "export", posy_file, "--format", "json")
    assert rc == 0
    assert json.loads(out)["stats"]["genus"] == 1


def test_binfn_pipeline(capsys, tmp_path):
    vec = tmp_path / "u.json"
    vec.write_text(json.dumps({"ground": [0], "values": [1, 0.5]}))
    rc, out, _ = run(capsys, "binfn", "transform", str(vec), "--mu", "w")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["values"]) == 2
    rc, out, _ = run(capsys, "binfn", "minor", str(vec), "--mu", "1",
                     "--element", "0")
    assert rc == 0
    assert len(json.loads(out)["values"]) == 1


def test_binfn_minor_superscript_element(capsys, tmp_path):
    # '²' is a digit to str.isdigit but no literal of int: it is a label,
    # and not one of the ground set
    vec = tmp_path / "u.json"
    vec.write_text(json.dumps({"ground": [0], "values": [1, 0.5]}))
    rc, out, err = run(capsys, "binfn", "minor", str(vec), "--mu", "1",
                       "--element", "²")
    assert rc == 1 and out == ""
    assert err == "error: unknown ground element '²'\n"


def test_binfn_solve(capsys, tmp_path):
    vec = tmp_path / "u.json"
    vec.write_text(json.dumps({"ground": [], "values": [1]}))
    rc, out, _ = run(capsys, "binfn", "solve", str(vec))
    assert rc == 0
    vals = json.loads(out)["values"]
    assert abs(vals[1][0] - (2 ** 0.5 - 1)) < 1e-9


@pytest.mark.parametrize("mu", ["nan", "1e400"])
def test_binfn_non_finite_mu_exit_code(capsys, tmp_path, mu):
    vec = tmp_path / "u.json"
    vec.write_text(json.dumps({"ground": [0], "values": [1, 0.5]}))
    for extra in ([], ["--element", "0"]):
        op = "minor" if extra else "transform"
        rc, out, err = run(capsys, "binfn", op, str(vec), "--mu", mu, *extra)
        assert rc == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("doc", [
    [1, 2, 3], None, "text", {"ground": 0, "values": [1, 2]},
    {"ground": [[0]], "values": [1, 2]}, {"ground": [0], "values": [1, "x"]},
    {"ground": [0], "values": [1, [2]]}, {"ground": [0], "values": [1, True]},
    {"ground": [0], "values": [1, 1e400]}, {"ground": [0], "values": [1, 10 ** 400]},
    {"ground": [0]}, {"ground": [0, 1], "values": [1, 2]}])
def test_binfn_malformed_json_exit_code(capsys, tmp_path, doc):
    vec = tmp_path / "u.json"
    vec.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "binfn", "transform", str(vec), "--mu", "w")
    assert rc == 1 and out == "" and err.startswith("error: ")


def test_binfn_deeply_nested_json_exit_code(capsys, tmp_path):
    # json.loads raises RecursionError, not a JSONDecodeError, on deep nesting
    vec = tmp_path / "deep.json"
    vec.write_text("[" * 100000 + "]" * 100000)
    rc, out, err = run(capsys, "binfn", "transform", str(vec), "--mu", "w")
    assert rc == 1 and out == "" and err.startswith("error: ")
    assert err.count("\n") == 1


def test_domain_error_exit_code(capsys, posy_file):
    rc, _, err = run(capsys, "reduce", posy_file, "--edge", "zzz", "--mu", "1")
    assert rc == 1 and "error:" in err
    rc, _, err = run(capsys, "stats", "/no/such/file")
    assert rc == 1


def test_internal_error_exit_code(capsys, posy_file, monkeypatch):
    def broken(g):
        raise InvariantError("a check failed")

    monkeypatch.setattr(altdimaps.cli, "map_stats", broken)
    rc, out, err = run(capsys, "stats", posy_file)
    assert rc == 1 and out == ""
    assert err == "internal error: a check failed\n"


def test_unwritable_labels_exit_code(capsys, posy_file, monkeypatch):
    # the labels 1 and "1" would both be written as the token 1
    monkeypatch.setattr(altdimaps.cli, "_load_map",
                        lambda path: build_map([1, "1"], [(1, "1")], []))
    rc, out, err = run(capsys, "trial", posy_file, "--power", "3")
    assert rc == 1 and out == "" and err.startswith("error: ")


# document text: the map format's directives with random label words, in
# order or in random lines, and arbitrary text
WORDS = st.lists(st.sampled_from(["a", "b", "1", "(a", "b)", "(a b)", "(b a)",
                                  "()", "(1)", "(", ")", "%", "%61", "#",
                                  "\t", "é"]), max_size=3).map(" ".join)
KEYS = ["map", "edges", "sigma_omega", "sigma_omega2"]
DOCS = st.one_of(
    st.tuples(*[WORDS] * 4).map(
        lambda ws: "\n".join(f"{k} {w}" for k, w in zip(KEYS, ws))),
    st.lists(st.tuples(st.sampled_from(KEYS + ["x", ""]), WORDS).map(" ".join),
             max_size=6).map("\n".join),
    st.text())


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(DOCS)
def test_stats_exit_codes_on_any_text(capsys, tmp_path, text):
    path = tmp_path / "fuzz.map"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "stats", str(path))
    assert rc in (0, 1)
    assert "Traceback" not in err
    assert (rc == 0) == out.startswith("V=")


MAP_COMMANDS = [("trial", "--power", "2"), ("trial", "--power", "x"),
                ("reduce", "--edge", "a", "--mu", "w"),
                ("reduce", "--edge", "1", "--mu", "1"),
                ("reduce", "--edge", "a", "--mu", "2"), ("classify",),
                ("commute", "--e", "a", "--mu", "1", "--f", "b", "--nu", "w"),
                ("commute", "--e", "a", "--mu", "w", "--f", "a", "--nu", "w2"),
                ("genus-test", "--k", "1"), ("genus-test", "--k", "-1"),
                ("export", "--format", "dot"), ("export", "--format", "json")]
# plane-graph documents: the format's directives with random dart words
DART_WORDS = st.lists(st.sampled_from(["a0", "a1", "b0", "b1", "u:", "a:",
                                       "b:", ":", "a0:", "#", "é"]),
                      max_size=4).map(" ".join)
PG_DOCS = st.one_of(
    st.lists(st.tuples(st.sampled_from(["planegraph", "vertex", "edge", "x"]),
                       DART_WORDS).map(" ".join), max_size=6).map("\n".join),
    st.text())


def assert_exit_contract(rc, err):
    assert rc in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", MAP_COMMANDS, ids=" ".join)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          max_examples=40)
@given(text=DOCS)
def test_map_commands_exit_codes_on_any_text(capsys, tmp_path, command, text):
    path = tmp_path / "fuzz.map"
    path.write_text(text, encoding="utf-8")
    op, *opts = command
    assert_exit_contract(*run(capsys, op, str(path), *opts)[::2])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=PG_DOCS, variant=st.sampled_from(["c", "a", "i"]),
       order=st.lists(st.sampled_from(["a", "b", "c"]), max_size=3))
def test_tutte_exit_codes_on_any_text(capsys, tmp_path, text, variant, order):
    path = tmp_path / "fuzz.pg"
    path.write_text(text, encoding="utf-8")
    opts = ["--order", *order] if order else []
    assert_exit_contract(*run(capsys, "tutte", str(path), "--variant",
                                  variant, *opts)[::2])


# any count: up to the library's cap of 6 edges it enumerates (6 edges take
# longer than hypothesis' default deadline), above it exits 1 at once
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)
@given(edges=st.one_of(st.integers().map(str),
                      st.text(st.characters(blacklist_categories=["Nd"]),
                              max_size=3)),
       opts=st.sampled_from([[], ["--filter", "posy"],
                             ["--filter", "self-trial"], ["--filter", "x"]]))
def test_enumerate_exit_codes_on_any_count(capsys, edges, opts):
    assert_exit_contract(*run(capsys, "enumerate", "--edges", edges,
                                  *opts)[::2])


# binary-function documents: well-formed ones with random labels and
# values, any JSON value, and arbitrary text
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=8)
BF_DOCS = st.one_of(
    st.integers(0, 3).flatmap(lambda m: st.fixed_dictionaries({
        "ground": st.lists(JSON_SCALARS, min_size=m, max_size=m),
        "values": st.lists(st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS,
                                                            max_size=3)),
                           min_size=2 ** m, max_size=2 ** m)})).map(json.dumps),
    JSON_VALUES.map(json.dumps),
    st.text())
BF_COMMANDS = st.sampled_from([("transform", "--mu", "w"),
                               ("transform", "--mu", "nan"),
                               ("minor", "--mu", "1", "--element", "0"),
                               ("minor", "--mu", "w2", "--element", "a"),
                               ("solve",)])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(BF_DOCS, BF_COMMANDS)
def test_binfn_exit_codes_on_any_text(capsys, tmp_path, text, command):
    path = tmp_path / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    op, *opts = command
    rc, out, err = run(capsys, "binfn", op, str(path), *opts)
    assert rc in (0, 1)
    assert "Traceback" not in err
    assert (rc == 0) == bool(out)
    if rc == 0:
        assert set(json.loads(out)) == {"ground", "values"}


def test_binfn_overflow_is_an_error(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"ground": [null], "values": '
                    '[1.3715936240140148e+308, 1.3715936240140144e+308]}',
                    encoding="utf-8")
    rc, out, err = run(capsys, "binfn", "transform", str(path), "--mu", "w")
    assert (rc, out) == (1, "")
    assert "overflows" in err


def test_usage_error_exit_code(posy_file):
    with pytest.raises(SystemExit) as ei:
        main(["reduce", posy_file, "--edge", "0", "--mu", "bogus"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["not-a-command"])
    assert ei.value.code == 2


def test_deterministic_output(capsys, posy_file):
    a = run(capsys, "export", posy_file, "--format", "dot")
    b = run(capsys, "export", posy_file, "--format", "dot")
    assert a == b
