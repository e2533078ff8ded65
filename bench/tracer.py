"""Per-layer spans and counters, recorded around calls into modtopo.

The tracer wraps the library's public functions and methods in memory
while a traced pass runs and restores the originals afterwards; nothing
under ``src/`` is edited.  Every wrapped call is a span (name, start, end,
parent).  A layer's self time is its spans' durations minus the time of
the spans nested directly inside them, so a layer that calls another is
not charged for it.  The hottest Steenrod helpers (``poly_mul`` and the
per-monomial operations) are counted but not timed, because a span per
call would cost more than the work it measures.

A name that the library no longer defines is listed as absent and its
metrics read 0; it is not an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# layer -> (module, class or None, attribute) of every public entry point
# whose self time is charged to it
TIMED = {
    "abgroup.matmul": [("abgroup", "IntMatrix", "__matmul__")],
    "abgroup.snf": [("abgroup", None, "smith_normal_form")],
    "abgroup.kernel": [("abgroup", None, "integer_kernel_basis")],
    "abgroup.image": [("abgroup", None, "image_lattice_basis")],
    "abgroup.solve": [("abgroup", None, "solve_integer")],
    "abgroup.quotient": [("abgroup", None, "lattice_quotient")],
    "abgroup.determinant": [("abgroup", None, "determinant")],
    "abgroup.homology": [
        ("abgroup", None, "homology_of_complex"),
        ("abgroup", None, "cohomology_of_cochain_complex"),
        ("abgroup", None, "dual_complex"),
    ],
    "abgroup.from_divisors": [("abgroup", "FgAbGroup", "from_divisors")],
    "abgroup.group_ops": [
        ("abgroup", "FgAbGroup", op)
        for op in ("tensor", "tor", "hom", "ext", "direct_sum", "repeated_sum")
    ],
    "graded.tensor_complex": [("graded", None, "tensor_product_complex")],
    "graded.kunneth": [("graded", None, "kunneth_product")],
    "graded.coefficients": [
        ("graded", None, "homology_with_coefficients"),
        ("graded", None, "cohomology_with_coefficients"),
    ],
    "ktheory.k_via_d3": [("ktheory", None, "k_groups_via_d3")],
    "steenrod.presentation": [("steenrod", "ModPRingPresentation", "__init__")],
    "steenrod.eval": [
        ("steenrod", None, name) for name in ("sq", "st", "bockstein", "w3_from_w2")
    ],
    "steenrod.verify": [("steenrod", None, "verify_axioms")],
    "steenrod.reduce": [("steenrod", "ModPRingPresentation", "reduce")],
    "selftest.k_sweep": [("selftest", None, "k_path_sweep")],
    "selftest.hodge_sweep": [("selftest", None, "hodge_sum_sweep")],
    "hilbert.tables": [
        ("hilbert", None, name)
        for name in (
            "compact_betti",
            "cuspidal_betti",
            "betti_total",
            "hodge_slice",
            "hodge_filtration_dims",
            "variety_cohomology",
            "compact_implied_volume",
        )
    ],
    "anomaly.checks": [
        ("anomaly", None, name)
        for name in (
            "freed_witten_check",
            "mms_instability_check",
            "d3_action",
            "flux_quantization_check",
            "hilbert_anomaly_report",
        )
    ],
}

COUNTED = {
    "steenrod.poly_mul": ("steenrod", "ModPRingPresentation", "poly_mul"),
    "steenrod.sq_mono": ("steenrod", "ModPRingPresentation", "sq_mono"),
    "steenrod.st_mono": ("steenrod", "ModPRingPresentation", "st_mono"),
    "steenrod.beta_mono": ("steenrod", "ModPRingPresentation", "beta_mono"),
}

# metric -> (unit, better); every one is reported by every traced run
METRICS = {f"{layer}_s": ("s", "lower") for layer in TIMED}
METRICS.update(
    {
        "abgroup.matmul_calls": ("count", "lower"),
        "abgroup.snf_calls": ("count", "lower"),
        "abgroup.snf_cells": ("count", "lower"),
        "abgroup.snf_max_bits": ("bits", "lower"),
        "abgroup.from_divisors_args": ("count", "lower"),
        "ktheory.k_via_d3_calls": ("count", "lower"),
        "steenrod.reduce_calls": ("count", "lower"),
        "steenrod.poly_mul_calls": ("count", "lower"),
        "steenrod.mono_calls": ("count", "lower"),
        "steenrod.mono_distinct": ("count", "lower"),
        "steenrod.mono_hit_ratio": ("ratio", "higher"),
    }
)


def _max_bits(snf) -> int:
    bits = 0
    for field in ("left", "right", "left_inv", "right_inv"):
        m = getattr(snf, field, None)
        for v in getattr(m, "entries", ()):
            b = abs(v).bit_length()
            if b > bits:
                bits = b
    return bits


class Tracer:
    """Installs the wrappers, and keeps per-pass totals and spans."""

    def __init__(self):
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.keep_spans = False
        self._stack: list[list] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self._seen = weakref.WeakKeyDictionary()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for layer, targets in TIMED.items():
            for target in targets:
                self._patch(target, lambda fn, name, layer=layer: self._timed(layer, name, fn))
        for counter, target in COUNTED.items():
            self._patch(target, lambda fn, name, counter=counter: self._counted(counter, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, target, make) -> None:
        module_name, class_name, attr = target
        name = f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
        try:
            module = importlib.import_module(f"modtopo.{module_name}")
        except ImportError:
            self.absent.append(name)
            return
        if class_name is None:
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                return
            wrapper = make(original, name)
            # the function is also bound by name in every module that imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "modtopo" and getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
            return
        owner = getattr(module, class_name, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(name)
            return
        if isinstance(raw, classmethod):
            wrapper = classmethod(make(raw.__func__, name))
        else:
            wrapper = make(raw, name)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------

    def _timed(self, layer: str, name: str, fn):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.self_s[layer] += end - start - frame[1]
                tracer.counts[layer] += 1
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, name, start, end))
            tracer._count_args(layer, args, out)
            if stack:
                # the parent is charged neither for this span nor for the
                # bookkeeping above
                stack[-1][1] += perf_counter() - start
            return out

        return traced

    def _count_args(self, layer: str, args, out) -> None:
        if layer == "abgroup.snf":
            m = args[0]
            self.counts["abgroup.snf_cells"] += m.rows * m.cols
            self.max_bits = max(self.max_bits, _max_bits(out))
        elif layer == "abgroup.from_divisors":
            self.counts["abgroup.from_divisors_args"] += len(args) - 1

    def _counted(self, counter: str, fn):
        counts = self.counts
        if counter == "steenrod.poly_mul":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

            return counted

        seen = self._seen_keys
        kind = counter

        @functools.wraps(fn)
        def counted_mono(pres, *args):
            counts["steenrod.mono_calls"] += 1
            keys = seen(pres)
            key = (kind, args)
            if key not in keys:
                keys.add(key)
                counts["steenrod.mono_distinct"] += 1
            return fn(pres, *args)

        return counted_mono

    def _seen_keys(self, pres) -> set:
        # keyed weakly: a presentation freed mid-pass can hand its id to a
        # fresh one, whose keys are new
        keys = self._seen.get(pres)
        if keys is None:
            keys = self._seen[pres] = set()
        return keys

    # -- results --------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """This pass's value of every metric in METRICS."""
        out = {f"{layer}_s": self.self_s.get(layer, 0.0) for layer in TIMED}
        c = self.counts
        out.update(
            {
                "abgroup.matmul_calls": c["abgroup.matmul"],
                "abgroup.snf_calls": c["abgroup.snf"],
                "abgroup.snf_cells": c["abgroup.snf_cells"],
                "abgroup.snf_max_bits": self.max_bits,
                "abgroup.from_divisors_args": c["abgroup.from_divisors_args"],
                "ktheory.k_via_d3_calls": c["ktheory.k_via_d3"],
                "steenrod.reduce_calls": c["steenrod.reduce"],
                "steenrod.poly_mul_calls": c["steenrod.poly_mul"],
                "steenrod.mono_calls": c["steenrod.mono_calls"],
                "steenrod.mono_distinct": c["steenrod.mono_distinct"],
                "steenrod.mono_hit_ratio": (
                    1 - c["steenrod.mono_distinct"] / c["steenrod.mono_calls"]
                    if c["steenrod.mono_calls"]
                    else 0.0
                ),
            }
        )
        return out
