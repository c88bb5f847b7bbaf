"""Outside-in tracer: wraps public functions of the ``altdimaps`` modules.

The library is not modified.  ``Tracer.install`` replaces each listed
function in *every* ``altdimaps`` module that binds it (``invariants`` and
``minors`` import ``classify_edge`` by name, so patching ``core`` alone would
miss their calls), wraps constructors and methods on their classes, and
``Tracer.remove`` puts the originals back.

Each wrapper is a span: it counts the call and adds its duration, minus the
time covered by wrapped calls nested inside it, to the function's self time.
Spans are aggregated per function as they close rather than stored, because
the map workloads make millions of wrapped calls per pass.  The hooks that
feed the ratio counters are timed apart: their time is booked to no layer's
self time and is kept in ``hook_s``.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Layer name -> targets.  A target is (module, attribute path).  A class
# target counts constructions (its __init__ is wrapped); "Class.method"
# wraps a method on the class; anything else is a module-level function.
LAYERS = {
    "perm.Perm": [("perm", "Perm")],
    "core.AltDimap": [("core", "AltDimap")],
    "core.classify_edge": [("core", "classify_edge")],
    "core.rotation_system": [("core", "rotation_system")],
    "core.map_stats": [("core", "map_stats")],
    "embedded.EmbeddedGraph": [("embedded", "EmbeddedGraph")],
    "embedded.EmbeddedGraph.k_minus_gamma": [("embedded", "EmbeddedGraph.k_minus_gamma")],
    "embedded.EmbeddedGraph.delete_edges": [("embedded", "EmbeddedGraph.delete_edges")],
    "minors.reduce_map": [("minors", "reduce_map")],
    "minors.predict_commute": [("minors", "predict_commute")],
    "minors.minor_closure": [("minors", "minor_closure")],
    "minors.is_totally_reduction_commutative": [("minors", "is_totally_reduction_commutative")],
    "minors.genus_excluded_minor_test": [("minors", "genus_excluded_minor_test")],
    "catalog.canonical_code": [("catalog", "canonical_code")],
    "catalog.enumerate_maps": [("catalog", "enumerate_maps")],
    "catalog.posies": [("catalog", "posies")],
    "invariants.T_c": [("invariants", "T_c")],
    "invariants.T_a": [("invariants", "T_a")],
    "invariants.T_i": [("invariants", "T_i")],
    "invariants.alt_c": [("invariants", "alt_c")],
    "invariants.alt_a": [("invariants", "alt_a")],
    "invariants.alt_i": [("invariants", "alt_i")],
    "poly.mul": [("poly", "Poly1.__mul__"), ("poly", "Poly2.__mul__")],
    "poly.add": [("poly", "Poly1.__add__"), ("poly", "Poly2.__add__")],
    "multigraph.tutte_poly": [("multigraph", "tutte_poly")],
    "binfn.transform": [("binfn", "transform")],
    "binfn.bf_minor": [("binfn", "bf_minor")],
    "binfn.solve_uniform_reduction": [("binfn", "solve_uniform_reduction")],
    "textio.serialize_map": [("textio", "serialize_map")],
    "textio.parse_map": [("textio", "parse_map")],
    "textio.parse_plane_graph": [("textio", "parse_plane_graph")],
}

T_STAR = ("invariants.T_c", "invariants.T_a", "invariants.T_i")
PACKAGE = "altdimaps"


class TraceError(RuntimeError):
    """A listed function is missing, or patching left an original bound."""


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.active = {name: 0 for name in LAYERS}
        # nested-span time of each open span, innermost last
        self._stack = []
        self._hook_s = [0.0]
        self._patches = []
        # ratio counters
        self.t_classify_calls = 0
        self.t_distinct_states = 0
        self._t_states = []
        self.closure_codes = 0
        self.closure_minors = 0
        self.enumerate_codes = 0
        self.enumerate_kept = 0
        self.transform_flops = 0
        self.transform_bytes = 0

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        try:
            for layer, targets in LAYERS.items():
                for module, path in targets:
                    self._patch(layer, module, path, modules)
        except BaseException:
            self.remove()
            raise

    def _patch(self, layer: str, module: str, path: str, modules: list) -> None:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if mod is None:
            raise TraceError(f"module {PACKAGE}.{module} is not imported")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name, None)
            if not isinstance(owner, type) or attr not in vars(owner):
                raise TraceError(f"{module}.{path} is missing")
            self._set(owner, attr, self._wrap(layer, vars(owner)[attr]))
            return
        original = getattr(mod, attr, None)
        if original is None:
            raise TraceError(f"{module}.{attr} is missing")
        if isinstance(original, type):
            if "__init__" not in vars(original):
                raise TraceError(f"{module}.{attr} defines no __init__")
            self._set(original, "__init__", self._wrap(layer, vars(original)["__init__"]))
            return
        wrapper = self._wrap(layer, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    self._set(m, name, wrapper)
        still = [m.__name__ for m in modules
                 for value in vars(m).values() if value is original]
        if still:
            raise TraceError(f"{module}.{attr} still bound unwrapped in {still}")

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- spans -----------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        calls, self_s, active, stack = self.calls, self.self_s, self.active, self._stack
        hook_s = self._hook_s
        before, after = self._hooks(layer)

        def timed_hook(hook, *hook_args):
            # A hook runs outside its own span; its time is taken out of the
            # enclosing span too, so that it counts as no layer's self time.
            t0 = perf_counter()
            hook(*hook_args)
            dt = perf_counter() - t0
            hook_s[0] += dt
            if stack:
                stack[-1][0] += dt

        def span(*args, **kwargs):
            if before is not None:
                timed_hook(before, args)
            active[layer] += 1
            nested = [0.0]
            stack.append(nested)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[layer] -= 1
                calls[layer] += 1
                self_s[layer] += dt - nested[0]
                if stack:
                    stack[-1][0] += dt
                if after is not None:
                    timed_hook(after, args, result)

        return span

    def _hooks(self, layer: str):
        """(before, after) callbacks that feed the ratio counters.  They run
        outside the span they belong to; ``after`` also runs when the call
        raises, with result None."""
        active = self.active
        if layer in T_STAR:
            def before(args):
                self._t_states.append(set())

            def after(args, result):
                self.t_distinct_states += len(self._t_states.pop())
            return before, after
        if layer == "core.classify_edge":
            def before(args):
                if self._t_states:
                    g, e = args[0], args[1]
                    self._t_states[-1].add((g.sw, g.sw2, e))
                    self.t_classify_calls += 1
            return before, None
        if layer == "catalog.canonical_code":
            def before(args):
                if active["minors.minor_closure"]:
                    self.closure_codes += 1
                if active["catalog.enumerate_maps"]:
                    self.enumerate_codes += 1
            return before, None
        if layer == "minors.minor_closure":
            def after(args, result):
                self.closure_minors += len(result or ())
            return None, after
        if layer == "catalog.enumerate_maps":
            def after(args, result):
                self.enumerate_kept += len(result or ())
            return None, after
        if layer == "binfn.transform":
            def after(args, result):
                m = args[0].m
                # per coordinate sweep, each of the 2^m entries is one row of
                # a complex 2x2 matvec: 4 complex multiplies and 2 complex
                # adds are 28 real flops per pair, 14 per entry; it reads and
                # writes 16 bytes per entry.
                self.transform_flops += 14 * m * 2 ** m
                self.transform_bytes += 32 * m * 2 ** m
            return None, after
        return None, None

    # -- results ---------------------------------------------------------------

    @property
    def hook_s(self) -> float:
        """Time spent in the ratio-counter hooks so far."""
        return self._hook_s[0]

    def counters(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "t_classify_calls": self.t_classify_calls,
            "t_distinct_states": self.t_distinct_states,
            "closure_codes": self.closure_codes,
            "closure_minors": self.closure_minors,
            "enumerate_codes": self.enumerate_codes,
            "enumerate_kept": self.enumerate_kept,
            "transform_flops": self.transform_flops,
            "transform_bytes": self.transform_bytes,
        }
