"""Differential pins for the map recursions.

Every recursion is run on every map with at most 4 edges in every edge
order, and on every map with at most 5 edges in the default order and its
reverse.  The outputs (and which cases raise ValueError) are hashed into
one digest per recursion; the digests were recorded from the separate
per-recursion implementations that the table-driven engine replaced, so a
failure names the recursion whose results moved.
"""

import hashlib
from fractions import Fraction as Q
from itertools import permutations

import pytest

from altdimaps import (ExtendedParams, SimpleParams, T_a, T_c, T_i,
                       basic_extended_params, extended_eval,
                       simple_tutte_eval)

from conftest import maps_up_to

SIMPLE = SimpleParams(Q(2, 3), Q(-5, 7), Q(3, 2), Q(7, 5))
GENERIC = ExtendedParams(
    w=2, x=3, y=5, z=7, a=Q(1, 2), b=Q(-1, 3), c=Q(2, 5), d=Q(-3, 7),
    e=Q(5, 11), f=Q(-7, 13), g=Q(11, 17), h=Q(-13, 19), i=Q(17, 23),
    j=Q(-19, 29), k=Q(23, 31), l=Q(-29, 37))
BASIC = basic_extended_params(2, 3, 5, 7)  # zero coefficients: skipped terms

RECURSIONS = {
    "T_c": T_c,
    "T_a": T_a,
    "T_i": T_i,
    "simple_tutte_eval": lambda g, order: simple_tutte_eval(g, SIMPLE, order),
    "extended_eval/generic": lambda g, order: extended_eval(g, GENERIC, order),
    "extended_eval/basic": lambda g, order: extended_eval(g, BASIC, order),
}

DIGESTS = {
    "T_c":
        "86495af2626b06662569e5ec22c76f25c41c47ded5314436d5bddfc7126ddf96",
    "T_a":
        "c5121faf81d97516483be020956a48d71ae8563b5ef01a7dd2d268fe4ff118c4",
    "T_i":
        "dd54f15279fd64c8538b157718f5f26e727dadb91fb3f4cc66a5cde1369d571a",
    "simple_tutte_eval":
        "8fc0299a2c15b7716e942cb8b9d905000848c0aa4fe432c6da86b17330b1f326",
    "extended_eval/generic":
        "59aad4e2c645d8a768ca2891e79eb56c41ceb51697b55b2137e25688b433d34b",
    "extended_eval/basic":
        "3362b9e747ed45d4dfb342515c9dc10bbffa2c38ae7e0a8918bc7d2222f43f77",
}


def _cases():
    for g in maps_up_to(4):
        for order in permutations(sorted(g.edges, key=repr)):
            yield g, list(order)
    for g in maps_up_to(5):
        edges = sorted(g.edges, key=repr)
        yield g, None
        yield g, edges[::-1]


CASES = list(_cases())


def _digest(recursion) -> str:
    h = hashlib.sha256()
    for g, order in CASES:
        try:
            out = str(recursion(g, order))
        except ValueError:
            out = "ValueError"
        h.update(f"{out}\n".encode())
    return h.hexdigest()


def test_case_count():
    assert len(CASES) == 1108 + 2 * 221


@pytest.mark.parametrize("name", sorted(RECURSIONS))
def test_recursion_digest(name):
    assert _digest(RECURSIONS[name]) == DIGESTS[name]
