"""In-memory spans and counts around skewalg's public entry points.

`Tracer` rebinds each listed function or method wherever skewalg binds it
(module attributes for functions, the class attribute for methods), so
nested calls inside the package are recorded too.  Spanned entry points get
a span (name, start, end, parent span, op id); very hot ones are only
counted.  An entry point that no longer exists is skipped, and the metrics
that depend only on missing entry points are left out of `metrics()`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# (module, qualified name); the module is also the span's layer
SPANNED = (
    ("instances", "load_instance"), ("instances", "parse_instance"),
    ("groupoid", "validate_groupoid"), ("groupoid", "Groupoid.connected_components"),
    ("algebra", "Algebra.__init__"), ("algebra", "Algebra.center_basis"),
    ("algebra", "Algebra.ideal_basis"), ("algebra", "Algebra.subalgebra"),
    ("partial_action", "validate_partial_action"), ("partial_action", "invariant_suite"),
    ("partial_action", "PartialAction.restrict_to_component"),
    ("partial_action", "PartialAction.isotropy_action"),
    ("skew_ring", "build_skew_ring"), ("skew_ring", "tensor_over"),
    ("skew_ring", "TensorOverA.mult_matrix"), ("skew_ring", "TensorOverA.left_matrix"),
    ("skew_ring", "TensorOverA.right_matrix"), ("skew_ring", "SkewRing.unit"),
    ("separability", "decide_separability"), ("separability", "trace_into"),
    ("separability", "trace_between"), ("separability", "trace_total"),
    ("separability", "trace_invariant_suite"), ("separability", "build_certificate"),
    ("separability", "oracle_separability"), ("separability", "extract_witness"),
    ("linalg", "solve_affine"), ("linalg", "kernel"), ("linalg", "echelon"),
    ("linalg", "Matrix.rref"), ("linalg", "Matrix.__mul__"),
)

COUNTED = (
    ("algebra", "Algebra.multiply"), ("partial_action", "PartialAction.alpha"),
    ("skew_ring", "SkewRing.mul_coords"), ("linalg", "Echelonizer.insert"),
    ("linalg", "Matrix.apply"),
)

# layer of the op span itself: argument parsing, report assembly, json.dumps
OP_LAYER = "cli"
LAYERS = ("instances", "groupoid", "algebra", "partial_action", "skew_ring",
          "separability", "linalg", OP_LAYER)

# inclusive wall time of the outermost span among these entry points
INCLUSIVE = {
    "partial_action.validate_s": ("validate_partial_action",),
    "skew_ring.ring_build_s": ("build_skew_ring",),
    "skew_ring.tensor_build_s": ("tensor_over", "TensorOverA.mult_matrix",
                                 "TensorOverA.left_matrix", "TensorOverA.right_matrix"),
    "separability.trace_s": ("trace_into", "trace_between", "trace_total",
                             "trace_invariant_suite"),
    "separability.certificate_s": ("build_certificate",),
    "separability.oracle_s": ("oracle_separability", "extract_witness"),
    "linalg.solve_s": ("solve_affine",),
}

CALLS = {
    "algebra.multiply_calls": "Algebra.multiply",
    "partial_action.alpha_calls": "PartialAction.alpha",
    "skew_ring.mul_coords_calls": "SkewRing.mul_coords",
    "skew_ring.rings_built": "build_skew_ring",
    "skew_ring.tensors_built": "tensor_over",
    "linalg.inserts": "Echelonizer.insert",
    "linalg.apply_calls": "Matrix.apply",
}

# size read from an entry point's return value: metric -> (entry point, attribute)
SIZES = {
    "skew_ring.ring_dim": ("build_skew_ring", "dim"),
    "skew_ring.tensor_ambient_dim": ("tensor_over", "ambient_dim"),
    "skew_ring.tensor_dim": ("tensor_over", "dim"),
}


def _resolve(modules: dict, module: str, qualname: str):
    """(original, [(owner, attribute), ...]) or None if the entry point is gone."""
    mod = modules.get(module)
    owner_name, _, attr = qualname.rpartition(".")
    if mod is None:
        return None
    if owner_name:
        owner = getattr(mod, owner_name, None)
        orig = vars(owner).get(attr) if inspect.isclass(owner) else None
        return (orig, [(owner, attr)]) if inspect.isfunction(orig) else None
    orig = vars(mod).get(attr)
    if not inspect.isfunction(orig):
        return None
    sites = [(m, name) for m in modules.values()
             for name, value in vars(m).items() if value is orig]
    return orig, sites


class Tracer:
    """Wrappers are installed inside `with tracer:` and removed on exit; the
    records accumulate across uses.  `modules` maps short names to skewalg's
    modules."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list = []          # span name per name id
        self.layer_of: list = []       # layer per name id
        self.spans: list = []          # [name id, start ns, end ns, parent index, op]
        self.calls: dict = {}          # entry point -> calls
        self.true_results: dict = {}   # entry point -> calls that returned True
        self.sizes: dict = {}          # (op, size metric) -> largest value in the op
        self.missing: list = []
        self.op = None
        self._ids: dict = {}
        self._stack: list = []
        self._patches = self._install_plan()

    def _name_id(self, name: str, layer: str) -> int:
        if (name, layer) not in self._ids:
            self._ids[(name, layer)] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[(name, layer)]

    @contextlib.contextmanager
    def _recording(self, nid: int):
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter_ns()
            self._stack.pop()

    def span(self, name: str, layer: str):
        """Context manager recording one span (used for the op span)."""
        return self._recording(self._name_id(name, layer))

    def _spanned(self, fn, name, layer):
        nid = self._name_id(name, layer)
        observed = [(metric, attr) for metric, (entry, attr) in SIZES.items()
                    if entry == name]
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            with self._recording(nid):
                result = fn(*args, **kwargs)
            for metric, attr in observed:
                self._size(metric, getattr(result, attr, None))
            return result
        return wrapper

    def _counted(self, fn, name):
        calls, trues = self.calls, self.true_results
        calls[name] = trues[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if result is True:
                trues[name] += 1
            return result
        return wrapper

    def _size(self, metric, value):
        if isinstance(value, int):
            key = (self.op, metric)
            self.sizes[key] = max(self.sizes.get(key, value), value)

    def _install_plan(self) -> list:
        patches = []
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for module, qualname in table:
                found = _resolve(self.modules, module, qualname)
                if found is None:
                    self.missing.append("%s.%s" % (module, qualname))
                    continue
                orig, sites = found
                wrapper = (self._spanned(orig, qualname, module) if kind == "span"
                           else self._counted(orig, qualname))
                patches.extend((owner, attr, orig, wrapper) for owner, attr in sites)
        return patches

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        return False

    # -- aggregation --------------------------------------------------------------

    def self_ns(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_self_s(self) -> dict:
        per_layer = dict.fromkeys(LAYERS, 0)
        for span, own in zip(self.spans, self.self_ns()):
            per_layer[self.layer_of[span[0]]] += own
        return {layer: ns / 1e9 for layer, ns in per_layer.items()}

    def inclusive_s(self, entries) -> float:
        entries = set(entries)
        covered = []
        total = 0
        for nid, start, end, parent, _ in self.spans:
            inside = self.names[nid] in entries
            covered.append(inside or (parent >= 0 and covered[parent]))
            if inside and not (parent >= 0 and covered[parent]):
                total += end - start
        return total / 1e9

    def metrics(self) -> dict:
        """Per-layer metrics; values for entry points that are missing are left out.

        A size is the mean, over the ops that built the object, of the largest
        one built in the op.
        """
        present = set(self.calls)
        out = {}
        layer_present = {module for module, qualname in SPANNED if qualname in present}
        layer_present.add(OP_LAYER)
        for layer, secs in self.layer_self_s().items():
            if layer in layer_present:
                out[layer + ".self_s"] = (secs, "s")
        for metric, entries in INCLUSIVE.items():
            if present.intersection(entries):
                out[metric] = (self.inclusive_s(entries), "s")
        for metric, entry in CALLS.items():
            if entry in present:
                out[metric] = (self.calls[entry], "count")
        inserts = self.calls.get("Echelonizer.insert")
        if inserts is not None:
            useful = self.true_results["Echelonizer.insert"]
            out["linalg.insert_useful_ratio"] = (useful / inserts if inserts else 0.0, "ratio")
        for metric, (entry, _) in SIZES.items():
            if entry in present:
                seen = [v for (_, m), v in self.sizes.items() if m == metric]
                out[metric] = (sum(seen) / len(seen) if seen else 0.0, "count")
        return out
