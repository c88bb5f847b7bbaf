"""Exact computations on alternating dimaps.

An alternating dimap is an orientably embedded directed graph in which
the edges around every vertex alternate in/out; it is encoded by a pair
of permutations of the edge set (the third being derived).  This
package provides the order-3 trial correspondence, the three edge
reductions and their commutation theory, isomorph-free enumeration,
genus via excluded minors, Tutte-style polynomial invariants on images
of plane graphs, and the binary-function transform calculus.
"""

from .core import (AltDimap, EMPTY_MAP, EdgeClass, InvariantError, MapStats,
                   build_map, classify_edge, map_from_rotations, map_stats,
                   reflect, rotation_system, trial, trial_power)
from .perm import Perm
from .embedded import EmbeddedGraph
from .minors import (commute_check, genus_excluded_minor_test,
                     is_2_reduction_commutative, is_posy, is_posy_union,
                     is_totally_reduction_commutative, is_tricircuit,
                     minor_closure, predict_commute, reduce_map, reduce_seq,
                     trimedial)
from .catalog import (canonical_code, enumerate_maps, isomorphic,
                      loop_star_1, loop_star_omega, loop_star_omega2,
                      posies, posy, tricircuit, ultraloop)
from .invariants import (ExtendedParams, SimpleParams,
                         SIMPLE_FAMILIES, T_a, T_c, T_i, alt_a, alt_c, alt_i,
                         basic_extended_params, extended_eval,
                         frontier_order, plane_multigraph,
                         simple_family_value, simple_tutte_eval)
from .multigraph import Multigraph, tutte_poly
from .poly import Poly1, Poly2
from .binfn import (BinFn, OMEGA, bf_minor, indicator_from_gf2, lambda_of,
                    mu_matrix, proportional_eq, solve_uniform_reduction,
                    tensor, transform, trivial_bf, ultraloop_bf)
from .textio import (DocumentError, edge_class_summary, export_dot,
                     export_json, parse_map, parse_plane_graph,
                     serialize_map)

__version__ = "1.0.0"
