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
from .catalog import _coded_maps, canonical_code
from .core import MU_BY_NAME, InvariantError, map_stats, trial, trial_power
from .invariants import T_a, T_c, T_i, alt_a, alt_c, alt_i, plane_multigraph
from .minors import commute_check, excluded_minor_witness, is_posy, reduce_map
from .multigraph import tutte_poly
from .textio import (edge_class_summary, export_dot, export_json, parse_map,
                     parse_plane_graph, serialize_map)

MU_CHOICES = list(MU_BY_NAME)

# The tutte command's cap on the edges of the plane graph.  Just above it,
# the triangulated 4×6 grid (53 edges) takes 0.09-0.15 s in the oracle
# and at most 0.16-0.22 s in each recursion in its default order (T_a),
# peak RSS 59 MiB; the triangulated 5×5 grid (56 edges) takes 0.6 s in
# the oracle (one core of a shared 2-vCPU VM, three runs).
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
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None
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
    if text in MU_BY_NAME:
        return OMEGA ** MU_BY_NAME[text]
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
    coded = _coded_maps(args.edges)
    if args.filter == "posy":
        coded = [(c, m) for c, m in coded if is_posy(m) is not None]
    elif args.filter == "self-trial":
        coded = [(c, m) for c, m in coded if c == canonical_code(trial(m))]
    for c, _ in coded:
        print(c.hex())
    print(f"count {len(coded)}")
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
    if len(p.edges) > TUTTE_MAX_EDGES:
        raise ValueError(f"Tutte recursion capped at {TUTTE_MAX_EDGES} edges")
    oracle = tutte_poly(plane_multigraph(p))
    recursion, alt = {"c": (T_c, alt_c), "a": (T_a, alt_a),
                      "i": (T_i, alt_i)}[args.variant]
    image = alt(p)
    target = oracle.diagonal() if args.variant == "i" else oracle
    # each plane edge lab stands for the image edges (lab, end), in the
    # image's numbering order; without --order the library picks the order
    order = ([x for lab in args.order for x in image.edges if x[0] == lab]
             if args.order is not None else None)
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
    # Finite inputs near the float limit can overflow; the result is then
    # refused like a non-finite input rather than written as Infinity/NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.binfn_op == "transform":
            out = transform(f, _parse_mu_scalar(args.mu))
        elif args.binfn_op == "minor":
            e = args.element
            if e not in f.ground and e.isdecimal() and int(e) in f.ground:
                e = int(e)
            out = bf_minor(f, e, _parse_mu_scalar(args.mu))
        else:
            out = solve_uniform_reduction(f)
    if not np.isfinite(out.values).all():
        raise ValueError("result overflows the float range")
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
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
