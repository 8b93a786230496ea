"""The benchmark tracer still finds every entry point it rebinds.

`perfbench/spans.py` leaves a per-layer metric out when its entry point is
gone, so a rename or deletion in skewalg would silently drop a metric; this
test makes it fail instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SUBMODULES = ("algebra", "cli", "fuzz", "groupoid", "instances", "linalg",
              "partial_action", "separability", "skew_ring")


def test_tracer_resolves_every_entry_point():
    for name in SUBMODULES:
        importlib.import_module("skewalg." + name)
    modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
               if name == "skewalg" or name.startswith("skewalg.")}
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Tracer(modules).missing == []
