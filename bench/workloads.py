"""The four benchmark workloads: inputs from a seed, task lists and checks.

A workload's ``prepare(lib, seed)`` builds everything a pass needs from the
seed alone: generated inputs and the reference answers they are checked
against.  ``tasks(state, i)`` returns the fixed task list of pass i.  Where
the seed changes the amount of work (edge names set the reduction order of
the Tutte recursions), a workload sets ``namings``: ``prepare`` makes that
many seeded namings of its inputs, pass i runs naming i mod ``namings``, and
a run stops only after whole cycles, so every naming is timed equally often
and a run's median rests on several seeded orders, not on one draw.  Each
task is ``(name, call, check)``: ``call(ctx)`` makes the library calls
being timed and returns their output, ``check(output)`` decides, untimed,
whether that output is right.  ``ctx`` is a dict shared by the tasks of one
pass, so a later task can consume an earlier task's output.

The library is always reached through attributes of the ``lib`` package at
call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

# Pinned answers.  They do not depend on the seed.
CENSUS_COUNTS = {1: 1, 2: 4, 3: 11, 4: 43, 5: 161, 6: 901}
POSY_COUNTS = {1: 1, 2: 3, 3: 19}
MINORS_MAX_EDGES = 5
MINORS_MAP_COUNT = 220
TOTALLY_COMMUTATIVE_COUNT = 80
BINFN_M = 20
BINFN_CODE_DIM = 10
BINFN_CHAIN = 8
TUTTE_NAMINGS = 5


# -- shared input generators ----------------------------------------------------

def edge_names(n: int, rng: random.Random) -> list:
    """n distinct edge names in a seeded order.  The names sort in a fixed
    order, so shuffling which edge gets which name changes the order in which
    the recursions reduce edges."""
    names = [f"e{i:02d}" for i in range(n)]
    rng.shuffle(names)
    return names


def relabel(lib, g, names: dict):
    """The map g with every edge e renamed names[e]."""
    return lib.AltDimap(
        lib.Perm({names[e]: names[g.sw(e)] for e in g.edges}),
        lib.Perm({names[e]: names[g.sw2(e)] for e in g.edges}))


def wheel_document(k: int, names: list) -> str:
    """Plane-graph document of the wheel W_k: hub h, rim vertices r_0..r_{k-1}
    placed anticlockwise, spoke names[i] = h r_i and rim edge names[k+i] =
    r_i r_{i+1}.  Rotations are clockwise."""
    hub = [names[0]] + [names[i] for i in range(k - 1, 0, -1)]
    lines = [f"planegraph W{k}", "vertex h: " + " ".join(f"{e}.0" for e in hub)]
    for i in range(k):
        spoke, rim_out, rim_in = names[i], names[k + i], names[k + (i - 1) % k]
        lines.append(f"vertex r{i}: {spoke}.1 {rim_out}.0 {rim_in}.1")
    lines += [f"edge {e}: {e}.0 {e}.1" for e in names]
    return "\n".join(lines) + "\n"


def theta_document(k: int, names: list) -> str:
    """Plane-graph document of the theta graph θ_k: k parallel edges between
    two vertices."""
    lines = [f"planegraph theta{k}",
             "vertex u: " + " ".join(f"{e}.0" for e in names),
             "vertex v: " + " ".join(f"{e}.1" for e in reversed(names))]
    lines += [f"edge {e}: {e}.0 {e}.1" for e in names]
    return "\n".join(lines) + "\n"


def gf2_dual_rows(rows: list, m: int) -> list:
    """A basis of the GF(2) dual of the row space of ``rows`` (0/1 lists of
    length m), by reduction to reduced row echelon form."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(m):
        hit = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    mat = mat[:r]
    dual = []
    for free in (c for c in range(m) if c not in pivots):
        vec = [0] * m
        vec[free] = 1
        for i, p in enumerate(pivots):
            vec[p] = mat[i][free]
        dual.append(vec)
    return dual


# -- tutte ----------------------------------------------------------------------

class Tutte:
    name = "tutte"
    why = ("deep T_c/T_a/T_i recursion on alt images of wheels and thetas; "
           "classify_edge and its semiloop test dominate, no canonical codes")
    namings = min_passes = TUTTE_NAMINGS

    FAMILIES = [("W", k, 2 * k) for k in range(3, 7)] + \
               [("theta", k, k) for k in range(3, 10)]

    def prepare(self, lib, seed: int) -> dict:
        rng = random.Random(seed)
        namings = [[] for _ in range(self.namings)]
        oracle_s = {}
        for family, k, n_edges in self.FAMILIES:
            document = wheel_document if family == "W" else theta_document
            planes = [lib.parse_plane_graph(document(k, edge_names(n_edges, rng)))
                      for _ in namings]
            # The Tutte polynomial does not depend on edge names: one
            # oracle serves every naming.
            t0 = perf_counter()
            oracle = lib.tutte_poly(lib.plane_multigraph(planes[0]))
            oracle_s[f"tutte_poly/{family}{k}"] = perf_counter() - t0
            for graphs, plane in zip(namings, planes):
                graphs.append((f"{family}{k}", plane, oracle))
        return {"namings": namings, "detail": oracle_s}

    def tasks(self, state: dict, i: int) -> list:
        out = []
        for label, plane, oracle in state["namings"][i % self.namings]:
            diag = oracle.diagonal()
            out += [
                (f"T_c/alt_c/{label}", lambda ctx, p=plane: lib_call(ctx, "T_c", "alt_c", p),
                 lambda r, want=oracle: r == want),
                (f"T_a/alt_a/{label}", lambda ctx, p=plane: lib_call(ctx, "T_a", "alt_a", p),
                 lambda r, want=oracle: r == want),
                (f"T_i/alt_i/{label}", lambda ctx, p=plane: lib_call(ctx, "T_i", "alt_i", p),
                 lambda r, want=diag: r == want),
            ]
        return out


def lib_call(ctx: dict, recursion: str, image: str, plane):
    lib = ctx["lib"]
    return getattr(lib, recursion)(getattr(lib, image)(plane))


# -- census ---------------------------------------------------------------------

class Census:
    name = "census"
    why = ("enumerate_maps(1..6), posies(1..3) and a document round trip of "
           "every 6-edge map; canonical codes dominate, classify_edge is never called")
    # 22 passes put the tail percentile (99.95) at the median of the
    # enumerate_maps(6) samples rather than at the edge of that group.
    min_passes = 22

    def prepare(self, lib, seed: int) -> dict:
        rng = random.Random(seed)
        names = [f"e{i}" for i in range(6)]
        relabellings = []
        for _ in range(CENSUS_COUNTS[6]):
            rng.shuffle(names)
            relabellings.append(dict(enumerate(names)))
        return {"relabellings": relabellings}

    def tasks(self, state: dict, i: int) -> list:
        out = []
        for n, count in CENSUS_COUNTS.items():
            out.append((f"enumerate_maps({n})",
                        lambda ctx, n=n: _enumerate(ctx, n),
                        lambda r, count=count: len(r) == count))
        for k, count in POSY_COUNTS.items():
            out.append((f"posies({k})",
                        lambda ctx, k=k: ctx["lib"].posies(k),
                        lambda r, count=count: len(r) == count))
        for j, names in enumerate(state["relabellings"]):
            out.append((f"round_trip/{j}",
                        lambda ctx, j=j, names=names: _round_trip(ctx, j, names),
                        lambda r: r[0] == r[1]))
        return out


def _enumerate(ctx: dict, n: int) -> list:
    maps = ctx["lib"].enumerate_maps(n)
    ctx[("maps", n)] = maps
    return maps


def _round_trip(ctx: dict, i: int, names: dict):
    lib = ctx["lib"]
    g = relabel(lib, ctx[("maps", 6)][i], names)
    return g, lib.parse_map(lib.serialize_map(g))


# -- minors ---------------------------------------------------------------------

class Minors:
    name = "minors"
    why = ("genus excluded-minor test and total reduction commutativity over "
           "all 220 maps with at most 5 edges; many small maps, reduce_map and canonical codes")
    min_passes = 2

    def prepare(self, lib, seed: int) -> dict:
        rng = random.Random(seed)
        maps = [relabel(lib, g, dict(enumerate(edge_names(g.n_edges, rng))))
                for n in range(1, MINORS_MAX_EDGES + 1) for g in lib.enumerate_maps(n)]
        if len(maps) != MINORS_MAP_COUNT:
            raise RuntimeError(f"expected {MINORS_MAP_COUNT} maps, got {len(maps)}")
        return {"maps": maps}

    def tasks(self, state: dict, i: int) -> list:
        out = []
        for j, g in enumerate(state["maps"]):
            for k in (1, 2):
                out.append((f"genus_test(k={k})/{j}",
                            lambda ctx, g=g, k=k: ctx["lib"].genus_excluded_minor_test(g, k),
                            lambda r: r[0] == r[1]))
            out.append((f"totally_commutative/{j}",
                        lambda ctx, j=j, g=g: _commutative(ctx, j, g),
                        lambda r: r is True or r is False))
        return out

    def pass_check(self, ctx: dict) -> bool:
        """The pinned count of totally reduction-commutative maps."""
        return sum(ctx["commutative"].values()) == TOTALLY_COMMUTATIVE_COUNT


def _commutative(ctx: dict, i: int, g) -> bool:
    r = ctx["lib"].is_totally_reduction_commutative(g)
    ctx.setdefault("commutative", {})[i] = r
    return r


# -- binfn ----------------------------------------------------------------------

class BinFnWorkload:
    name = "binfn"
    why = ("the mu-transform at m = 20 (numpy), bf_minor and the uniform-reduction "
           "chain; the only layer the map workloads leave unmeasured")
    # 6 passes of 7 tasks put the tail percentile (p76.19) inside the group
    # of m = 20 transforms.
    min_passes = 6

    def prepare(self, lib, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        m = BINFN_M
        ground = tuple(range(m))
        f = lib.BinFn(ground, rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m))
        mu = complex(rng.normal(), rng.normal())
        nu = complex(rng.normal(), rng.normal())
        pos = int(rng.integers(m))
        rows = rng.integers(0, 2, size=(BINFN_CODE_DIM, m)).tolist()
        code = lib.indicator_from_gf2(rows, m)
        dual = lib.indicator_from_gf2(gf2_dual_rows(rows, m), m)
        chain = [(lib.ultraloop_bf(k), lib.ultraloop_bf(k + 1)) for k in range(BINFN_CHAIN)]
        return {"f": f, "mu": mu, "nu": nu, "pos": pos, "code": code,
                "dual": dual, "chain": chain}

    def tasks(self, state: dict, i: int) -> list:
        f, mu, nu, pos = state["f"], state["mu"], state["nu"], state["pos"]
        prop = _proportional
        # An intermediate transform is checked through the task that
        # consumes it: the cube for omega, the minor identity for mu.
        out = [
            ("transform(omega)/1", lambda ctx: _keep(ctx, "w1", ctx["lib"].transform(f, ctx["lib"].OMEGA)),
             lambda r: r.m == BINFN_M),
            ("transform(omega)/2", lambda ctx: _keep(ctx, "w2", ctx["lib"].transform(ctx["w1"], ctx["lib"].OMEGA)),
             lambda r: r.m == BINFN_M),
            ("transform(omega)/3", lambda ctx: ctx["lib"].transform(ctx["w2"], ctx["lib"].OMEGA),
             lambda r: prop(r, f)),
            ("transform(-1)", lambda ctx: ctx["lib"].transform(state["code"], -1),
             lambda r: prop(r, state["dual"])),
            ("transform(mu)", lambda ctx: _keep(ctx, "mu", ctx["lib"].transform(f, mu)),
             lambda r: r.m == BINFN_M),
            ("bf_minor/transform(mu)", lambda ctx: _minor_pair(ctx, f, mu, nu, pos),
             lambda r: prop(r[0], r[1])),
        ]
        # The chain steps take about a millisecond or less each; as one task they
        # keep the median task inside the transforms rather than at the
        # edge of a group of sub-millisecond calls.
        out.append((f"solve_uniform_reduction(0..{BINFN_CHAIN - 1})",
                    lambda ctx: [ctx["lib"].solve_uniform_reduction(u) for u, _ in state["chain"]],
                    lambda r: all(prop(a, want) for a, (_, want) in zip(r, state["chain"]))))
        return out


def _keep(ctx: dict, key: str, value):
    ctx[key] = value
    return value


def _minor_pair(ctx: dict, f, mu: complex, nu: complex, pos: int):
    """Transform-minor compatibility: the [nu/mu]-minor of the mu-transform
    is proportional to the mu-transform of the [nu]-minor."""
    lib = ctx["lib"]
    return (lib.bf_minor(ctx["mu"], pos, nu / mu),
            lib.transform(lib.bf_minor(f, pos, nu), mu))


def _proportional(a, b) -> bool:
    # proportional_eq is library code; the check compares with numpy directly
    # so that checking adds no calls to the traced layers.
    k = int(np.argmax(np.abs(b.values)))
    c = a.values[k] / b.values[k]
    scale = max(1.0, float(np.max(np.abs(a.values))))
    return a.m == b.m and float(np.max(np.abs(a.values - c * b.values))) <= 1e-9 * scale


WORKLOADS = {w.name: w for w in (Tutte(), Census(), Minors(), BinFnWorkload())}
