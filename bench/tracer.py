"""Outside-in layer tracing: wraps formring's public functions from here.

Each formring module is a layer.  While a LayerTracer is installed, every
wrapped call records its duration; a layer's self time is the time in its
wrapped calls minus the time of wrapped calls nested inside them, so the
layers' self times never add up to more than the traced wall time.  Counters
are taken at the same boundaries.

formring binds many functions by `from .groebner import ...`, so a function
is replaced in every formring module namespace that holds the same object,
not only where it is defined; otherwise calls through those names are lost.
"""

from __future__ import annotations

import inspect
import sys
import weakref
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

import formring.cli  # noqa: F401  (the package does not import its CLI)
from formring.graded import GradedQuotientRing
from formring.poly import Polynomial

# Layers whose public module-level functions are wrapped.
FUNCTION_LAYERS = ("groebner", "koszul", "linalg", "localcoh", "descent",
                   "dsl", "cli")
# Only Polynomial arithmetic stands for `poly`: leading_monomial and
# TermOrder.key run about a million times per family job, so they stay in
# their caller's self time and keep the tracing overhead down.
POLY_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__pow__")
# graded's work lives in GradedQuotientRing methods; the cached accessors
# (dim, graded_basis, ...) are left out for the same reason as above.
GRADED_METHODS = ("__init__", "mult_matrix", "coordinates",
                  "element_from_coordinates", "krull_dimension", "top_degree")

LAYERS = ("poly", "groebner", "graded", "koszul", "linalg", "localcoh",
          "descent", "dsl", "cli")


def _ring_key(G: GradedQuotientRing) -> tuple:
    """The mathematical identity of a graded ring, across rebuilt objects."""
    return (G.ring.variables, G.p,
            tuple(tuple(sorted(g.terms.items())) for g in G.ideal.generators))


class LayerTracer:
    """Per-layer self time and counters for the calls made while installed.

    `begin_job` starts a new scope for the repeat ratios: a request counts
    as a repeat when the same job already made it, possibly on a rebuilt
    ring object.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ring_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._seen: set = set()
        self._last_spoly = None
        self.h0_report_s = 0.0

    # -- measurement ----------------------------------------------------------

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.h0_report_s = 0.0
        self.begin_job()

    def begin_job(self) -> None:
        self._ring_keys.clear()
        self._seen.clear()
        self._last_spoly = None

    def _wrap(self, layer: str, fn, hook=None):
        stack = self._stack
        self_s = self.self_s

        @wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, result, elapsed)
            return result

        return traced

    def _repeat(self, kind: str, key: tuple) -> None:
        self.counts[f"{kind}_calls"] += 1
        if key in self._seen:
            self.counts[f"{kind}_repeats"] += 1
        else:
            self._seen.add(key)

    def _key_of(self, G: GradedQuotientRing) -> tuple:
        key = self._ring_keys.get(G)
        if key is None:
            key = self._ring_keys[G] = _ring_key(G)
        return key

    # -- counters taken at the layer boundaries ------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def arith(args, result, elapsed):
            counts["poly.arith_calls"] += 1

        def buchberger(args, result, elapsed):
            counts["groebner.buchberger_calls"] += 1

        def spoly(args, result, elapsed):
            counts["groebner.spolys"] += 1
            self._last_spoly = result

        def normal_form(args, result, elapsed):
            counts["groebner.normal_form_calls"] += 1
            # buchberger reduces each S-polynomial right after forming it
            if self._last_spoly is not None and args[0] is self._last_spoly:
                self._last_spoly = None
                if result.is_zero():
                    counts["groebner.spolys_to_zero"] += 1

        def ring_built(args, result, elapsed):
            counts["graded.rings_built"] += 1

        def mult_matrix(args, result, elapsed):
            G, f, n = args[:3]
            self._repeat("graded.mult_matrix", (
                self._key_of(G), tuple(sorted(f.terms.items())), n))

        def piece(args, result, elapsed):
            spec, i, n = args[:3]
            self._repeat("koszul.piece", (
                self._key_of(spec.G), spec.sequence, spec.t, i, n))

        def rref(args, result, elapsed):
            rows, cols = np.shape(args[0])
            counts["linalg.rref_calls"] += 1
            counts["linalg.rref_cells"] += rows * cols
            counts["linalg.rref_dense_ops"] += len(result[1]) * rows * cols

        def rank(args, result, elapsed):
            counts["linalg.rank_calls"] += 1

        def entry(args, result, elapsed):
            counts["localcoh.entries"] += 1
            counts["localcoh.powers_visited"] += len(result.history)
            if not result.stabilized:
                counts["localcoh.unstable"] += 1

        def h0_report(args, result, elapsed):
            self.h0_report_s += elapsed

        def parse(args, result, elapsed):
            counts["dsl.parse_calls"] += 1

        def session(args, result, elapsed):
            counts["cli.commands"] += len(result["results"])

        return {
            ("groebner", "buchberger"): buchberger,
            ("groebner", "s_polynomial"): spoly,
            ("groebner", "normal_form"): normal_form,
            ("graded", "__init__"): ring_built,
            ("graded", "mult_matrix"): mult_matrix,
            ("koszul", "koszul_cohomology_piece"): piece,
            ("linalg", "rref"): rref,
            ("linalg", "rank"): rank,
            ("localcoh", "local_coh_piece"): entry,
            ("descent", "local_h0_report"): h0_report,
            ("dsl", "parse_session"): parse,
            ("cli", "run_session"): session,
            **{("poly", name): arith for name in POLY_ARITH},
        }

    # -- installing ------------------------------------------------------------

    def _targets(self):
        """(layer, owner, name) for every function that gets wrapped."""
        for layer in FUNCTION_LAYERS:
            module = sys.modules[f"formring.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    yield layer, module, name
        for name in POLY_ARITH:
            yield "poly", Polynomial, name
        for name in GRADED_METHODS:
            yield "graded", GradedQuotientRing, name

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "formring" or n.startswith("formring.")]
        for layer, owner, name in self._targets():
            original = vars(owner)[name]
            traced = self._wrap(layer, original, hooks.get((layer, name)))
            if isinstance(owner, type):
                self._patch(owner, name, traced)
                continue
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """The per-layer metrics of everything traced since `reset`."""
        c = self.counts

        def ratio(part: str, whole: str) -> float:
            return c[part] / c[whole] if c[whole] else 0.0

        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "poly.arith_calls": c["poly.arith_calls"],
            "groebner.buchberger_calls": c["groebner.buchberger_calls"],
            "groebner.spolys": c["groebner.spolys"],
            "groebner.spoly_zero_ratio": ratio("groebner.spolys_to_zero",
                                               "groebner.spolys"),
            "groebner.normal_form_calls": c["groebner.normal_form_calls"],
            "graded.rings_built": c["graded.rings_built"],
            "graded.mult_matrix_calls": c["graded.mult_matrix_calls"],
            "graded.mult_matrix_repeat_ratio": ratio(
                "graded.mult_matrix_repeats", "graded.mult_matrix_calls"),
            "koszul.piece_calls": c["koszul.piece_calls"],
            "koszul.piece_repeat_ratio": ratio("koszul.piece_repeats",
                                               "koszul.piece_calls"),
            "linalg.rref_calls": c["linalg.rref_calls"],
            "linalg.rank_calls": c["linalg.rank_calls"],
            "linalg.rref_cells": c["linalg.rref_cells"],
            "linalg.rref_dense_ops": c["linalg.rref_dense_ops"],
            "localcoh.entries": c["localcoh.entries"],
            "localcoh.powers_visited": c["localcoh.powers_visited"],
            "localcoh.unstable_ratio": ratio("localcoh.unstable",
                                             "localcoh.entries"),
            "descent.h0_report_s": self.h0_report_s,
            "dsl.parse_calls": c["dsl.parse_calls"],
            "cli.commands": c["cli.commands"],
        })
        return out


TIME_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS) + (
    "descent.h0_report_s",)
