"""Command-line interface.

Exit codes: 0 on success, 1 on a domain error (bad input data, failed
precondition) or a failed internal check, 2 on a usage error (unknown
flags, missing arguments).
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from .binfn import OMEGA, BinFn, bf_minor, solve_uniform_reduction, transform
from .catalog import canonical_code, enumerate_maps, isomorphic
from .core import MU_BY_NAME, InvariantError, map_stats, trial_power
from .invariants import (T_a, T_c, T_i, alt_a, alt_c, alt_i, frontier_order,
                         plane_multigraph)
from .minors import commute_check, excluded_minor_witness, is_posy, reduce_map
from .multigraph import tutte_poly
from .textio import (edge_class_summary, export_dot, export_json, parse_map,
                     parse_plane_graph, serialize_map)

MU_CHOICES = ["1", "w", "w2"]

# The tutte command's oracle cap.  With frontier orders the slowest plane
# graph measured just above it, the triangulated 4×6 grid (53 edges),
# takes about 0.3 s in the oracle and at most 0.3 s in each recursion
# (one core of a shared 2-vCPU VM).
TUTTE_MAX_EDGES = 48


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_map(path: str):
    return parse_map(_read_text(path))


# -- binary-function JSON I/O ------------------------------------------------

def _json_complex(v) -> complex:
    """A finite JSON number or [re, im] pair of numbers as a complex."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in parts):
        raise ValueError(f"a value is a number or a [re, im] pair, not {v!r}")
    try:
        z = complex(*map(float, parts))
    except OverflowError:  # an integer beyond the float range
        z = complex("inf")
    if not cmath.isfinite(z):
        raise ValueError("values must be finite")
    return z


def _bf_from_json(text: str) -> BinFn:
    """A document {"ground": [label, ...], "values": [value, ...]} whose
    labels are JSON scalars."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a binary function is a JSON object")
    ground, values = doc["ground"], doc["values"]
    if not isinstance(ground, list) or not isinstance(values, list):
        raise ValueError('"ground" and "values" must be lists')
    if any(isinstance(x, (list, dict)) for x in ground):
        raise ValueError("ground labels must be strings, numbers or null")
    return BinFn(tuple(ground),
                 np.array([_json_complex(v) for v in values], dtype=np.complex128))


def _bf_to_json(f: BinFn) -> str:
    return json.dumps({
        "ground": list(f.ground),
        "values": [[v.real, v.imag] for v in f.values],
    }, indent=2) + "\n"


def _parse_mu_scalar(text: str) -> complex:
    if text == "w":
        return OMEGA
    if text == "w2":
        return OMEGA ** 2
    return complex(text)


# -- subcommand handlers -----------------------------------------------------

def _cmd_stats(args) -> int:
    st = map_stats(_load_map(args.map_file))
    print(f"V={st.n_vertices} E={st.n_edges} af={st.n_a_faces} "
          f"cf={st.n_c_faces} k={st.n_components} genus={st.genus}")
    return 0


def _cmd_trial(args) -> int:
    g = trial_power(_load_map(args.map_file), args.power)
    sys.stdout.write(serialize_map(g, name="trial"))
    return 0


def _cmd_reduce(args) -> int:
    g = _load_map(args.map_file)
    h = reduce_map(g, args.edge, MU_BY_NAME[args.mu])
    sys.stdout.write(serialize_map(h, name="minor"))
    return 0


def _cmd_classify(args) -> int:
    g = _load_map(args.map_file)
    for e in sorted(g.edges, key=str):
        print(f"{e}\t{edge_class_summary(g, e)}")
    return 0


def _cmd_commute(args) -> int:
    g = _load_map(args.map_file)
    actual, predicted = commute_check(g, args.e, MU_BY_NAME[args.mu],
                                      args.f, MU_BY_NAME[args.nu])
    print(f"actual: {str(actual).lower()}")
    print(f"predicted: {str(predicted).lower()}")
    return 0


def _cmd_enumerate(args) -> int:
    from .core import trial
    maps = enumerate_maps(args.edges)
    if args.filter == "posy":
        maps = [m for m in maps if is_posy(m) is not None]
    elif args.filter == "self-trial":
        maps = [m for m in maps if isomorphic(m, trial(m))]
    for m in maps:
        print(canonical_code(m).hex())
    print(f"count {len(maps)}")
    return 0


def _cmd_genus_test(args) -> int:
    g = _load_map(args.map_file)
    st = map_stats(g)
    witness = excluded_minor_witness(g, args.k)
    genus_below = st.genus < args.k
    print(f"genus: {st.genus}")
    print(f"genus_below_k: {str(genus_below).lower()}")
    print(f"witness: {canonical_code(witness).hex() if witness else 'none'}")
    return 0


def _cmd_tutte(args) -> int:
    p = parse_plane_graph(_read_text(args.graph_file))
    oracle = tutte_poly(plane_multigraph(p), max_edges=TUTTE_MAX_EDGES)
    recursion, alt = {"c": (T_c, alt_c), "a": (T_a, alt_a),
                      "i": (T_i, alt_i)}[args.variant]
    image = alt(p)
    target = oracle.diagonal() if args.variant == "i" else oracle
    if not args.order:
        # alt_a(P) has the edge labels of alt_c(P); in alt_c's order T_a
        # meets 3-5x fewer states on the triangulated 4x5, 4x6 and 5x6
        # grids than in its own (1.3-1.4x more on 4x4 and 5x5)
        order = frontier_order(alt_c(p) if args.variant == "a" else image)
    else:
        # each plane edge stands for its two edges in the image: the
        # directed copies (lab, "+")/(lab, "-") of alt_c and alt_a, which
        # alt_i renames (lab, 1)/(lab, 0)
        ends = (0, 1) if args.variant == "i" else ("+", "-")
        order = [(lab, end) for lab in args.order for end in ends]
    poly = recursion(image, order=order)
    print(poly)
    print(target)
    print(f"equal: {str(poly == target).lower()}")
    return 0


def _cmd_export(args) -> int:
    g = _load_map(args.map_file)
    sys.stdout.write(export_dot(g) if args.format == "dot" else export_json(g))
    return 0


def _cmd_binfn(args) -> int:
    f = _bf_from_json(_read_text(args.input))
    if args.binfn_op == "transform":
        out = transform(f, _parse_mu_scalar(args.mu))
    elif args.binfn_op == "minor":
        e = args.element
        if e not in f.ground and e.isdigit() and int(e) in f.ground:
            e = int(e)
        out = bf_minor(f, e, _parse_mu_scalar(args.mu))
    else:
        out = solve_uniform_reduction(f)
    sys.stdout.write(_bf_to_json(out))
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="altdimaps",
        description="Exact computations on alternating dimaps.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="vertex/edge/face/genus counts")
    p.add_argument("map_file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("trial", help="the order-3 trial correspondence")
    p.add_argument("map_file")
    p.add_argument("--power", type=int, default=1)
    p.set_defaults(func=_cmd_trial)

    p = sub.add_parser("reduce", help="one edge reduction (minor)")
    p.add_argument("map_file")
    p.add_argument("--edge", required=True)
    p.add_argument("--mu", required=True, choices=MU_CHOICES)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("classify", help="per-edge loop/semiloop table")
    p.add_argument("map_file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("commute", help="do two reductions commute?")
    p.add_argument("map_file")
    p.add_argument("--e", required=True)
    p.add_argument("--mu", required=True, choices=MU_CHOICES)
    p.add_argument("--f", required=True)
    p.add_argument("--nu", required=True, choices=MU_CHOICES)
    p.set_defaults(func=_cmd_commute)

    p = sub.add_parser("enumerate", help="all maps with N edges, up to isomorphism")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--filter", choices=["posy", "self-trial"])
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("genus-test", help="excluded-minor genus verdict")
    p.add_argument("map_file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_genus_test)

    p = sub.add_parser("tutte", help="Tutte polynomial of a plane graph, two ways")
    p.add_argument("graph_file")
    p.add_argument("--variant", choices=["c", "a", "i"], default="c")
    p.add_argument("--order", nargs="*")
    p.set_defaults(func=_cmd_tutte)

    p = sub.add_parser("export", help="DOT or JSON export of a map")
    p.add_argument("map_file")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("binfn", help="binary-function calculus (JSON vectors)")
    bsub = p.add_subparsers(dest="binfn_op", required=True)
    for op in ("transform", "minor", "solve"):
        bp = bsub.add_parser(op)
        bp.add_argument("input", help="JSON file with ground/values, or '-'")
        if op in ("transform", "minor"):
            bp.add_argument("--mu", required=True,
                            help="1, -1, w, w2, or a complex literal")
        if op == "minor":
            bp.add_argument("--element", required=True)
        bp.set_defaults(func=_cmd_binfn)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
