"""The benchmark tracer still finds every entry point it rebinds.

`perfbench/spans.py` leaves a per-layer metric out when its entry point is
gone, so a rename or deletion in skewalg would silently drop a metric; these
tests make it fail instead.  The tracer's table still names seven methods
and two functions that skewalg no longer has; no benchmark metric depends
on them alone.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SUBMODULES = ("algebra", "cli", "fuzz", "groupoid", "instances", "linalg",
              "partial_action", "separability", "skew_ring")
DELETED = {"algebra.Algebra.subalgebra", "linalg.Matrix.__mul__", "linalg.Matrix.rref",
           "partial_action.invariant_suite",
           "partial_action.PartialAction.restrict_to_component",
           "partial_action.PartialAction.isotropy_action",
           "separability.trace_invariant_suite",
           "skew_ring.TensorOverA.left_matrix", "skew_ring.TensorOverA.right_matrix"}
# computed by perfbench/run.py itself, not by the tracer
RUN_METRICS = {"cli.max_coeff_bits", "trace.overhead_ratio"}


def fresh_tracer():
    for name in SUBMODULES:
        importlib.import_module("skewalg." + name)
    modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
               if name == "skewalg" or name.startswith("skewalg.")}
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer(modules)


def test_tracer_resolves_every_entry_point():
    assert set(fresh_tracer().missing) == DELETED


def test_tracer_reports_every_benchmark_metric():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(fresh_tracer().metrics()) == {m["name"] for m in per_layer} - RUN_METRICS
