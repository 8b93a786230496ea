"""A fixed ladder of skeleton instances, timed stage by stage, with the standard library only.

    python3 tools/ladder.py [CHECKOUT] [--out FILE] [--runs 3] [--rung SPEC ...]
                            [--oracle-up-to 768]

Each rung runs in one fresh child process, one at a time, on the `skewalg`
of CHECKOUT's `src/` (default: the checkout holding this tool), so the same
tool times a parent commit and a change alike.  The instances come from
this checkout's `perfbench/skeletons.py`: a rung is
`{"components": [skeletons.component(Random(1), k, m, d, domain_size=D)]}`
over FIELD, a global action when D = d and a partial one when D < d.  A
rung is written `FIELD:k,m,d:D[:KIND]`, for instance `Q:8,6,16:10`.

KIND `stages` (the default) times, on a fresh `parse_instance(json.loads(text))`
each run:
- parse, the whole of `parse_instance` (the digest included), with the
  digest (`instances._digest` of the parsed action) timed apart;
- validate, `PartialAction.validate`;
- decide + cert, `decide_separability` on the validated action;
- the oracle, `oracle_separability` on another freshly parsed and validated
  action, on the rungs whose ring has at most --oracle-up-to basis
  elements (the two (4,6,8) rungs by default; larger ones are opt-in).
The verdict must equal `skeletons.closed_form_separable`, a separable
verdict's certificate must check, and the oracle must agree with the
decision.

KIND `isotropy` times one in-process `cli.main(["separability", FILE,
"--isotropy"])`, whose report must exit 0 with the closed-form verdict.
KIND `skew-table` times the ring of `skew-table`, `build_skew_ring` on a
validated action, whose dimension must be `skeletons.ring_dim`; the report
itself is not written, since it holds ring_dim^3 scalars (453 M at
(4,6,8)).  Every child runs with SKEWALG_MAX_DIM raised to 10^8, so neither
the table nor the oracle's square is refused.

Each stage is the median of --runs in-process runs (wall time,
`time.perf_counter`), and the rung's peak RSS is its child's `ru_maxrss`
after every run, the instance text included.  A child that exits nonzero
or runs past its timeout is recorded with its reason, not dropped.  The
report goes to FILE (default `BENCH_ladder.json` at this checkout's root).
Exit code 0 iff every rung ran and every check held.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNGS = (
    "Q:4,6,8:8", "Q:4,6,8:5",
    "Q:6,8,12:12", "Q:6,8,12:8",
    "Q:8,6,16:16", "Q:8,6,16:10",
    "Q:8,6,16:16:isotropy",
    "Q:4,6,8:8:skew-table",
)
KINDS = ("stages", "isotropy", "skew-table")
CHILD_TIMEOUT_S = 1800


def parse_spec(spec: str) -> dict:
    """The rung of `FIELD:k,m,d:D[:KIND]`; ValueError if it is malformed."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("rung %r is not FIELD:k,m,d:D[:KIND]" % spec)
    k, m, d = (int(x) for x in parts[1].split(","))
    size = int(parts[2])
    kind = parts[3] if len(parts) == 4 else "stages"
    if kind not in KINDS or not 1 <= size <= d:
        raise ValueError("rung %r: KIND must be one of %s and 1 <= D <= d" % (spec, KINDS))
    return {"spec": spec, "field": parts[0], "k": k, "m": m, "d": d, "D": size,
            "kind": kind}


def load_skeletons():
    path = ROOT / "perfbench" / "skeletons.py"
    spec = importlib.util.spec_from_file_location("ladder_skeletons", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def measure(rung: dict, runs: int, oracle_up_to: int) -> dict:
    """Time one rung in this process with the `skewalg` on sys.path."""
    from skewalg import cli, instances
    from skewalg.separability import decide_separability, oracle_separability
    from skewalg.skew_ring import build_skew_ring

    sk = load_skeletons()
    skel = {"components": [sk.component(random.Random(1), rung["k"], rung["m"], rung["d"],
                                        domain_size=rung["D"])]}
    text = json.dumps(sk.to_instance(skel, rung["field"], "ladder"))
    expected = sk.closed_form_separable(skel, rung["field"])
    ring_dim = sk.ring_dim(skel)
    out = {**rung, "dim_a": sk.algebra_dim(skel),
           "arrows": sum(c["k"] ** 2 * c["m"] for c in skel["components"]),
           "ring_dim": ring_dim, "closed_form_separable": expected}
    times: dict = {}        # stage -> seconds of each run
    checks: dict = {}       # check -> whether it held in every run

    def record(stage, spent):
        times.setdefault(stage, []).append(spent)

    def check(name, ok):
        checks[name] = checks.get(name, True) and ok

    def parsed():
        inst, spent = timed(instances.parse_instance, json.loads(text))
        return inst.action, spent

    for _ in range(runs):
        if rung["kind"] == "isotropy":
            with tempfile.TemporaryDirectory(prefix="ladder-") as tmp:
                path = Path(tmp) / "rung.json"
                path.write_text(text)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code, spent = timed(cli.main, ["separability", str(path), "--isotropy"])
            record("command", spent)
            check("exit_0", code == 0)
            check("verdict", json.loads(buf.getvalue())["verdict"]["separable"] == expected)
            continue
        pa, spent = parsed()
        record("parse", spent)
        record("digest", timed(instances._digest, pa)[1])
        report, spent = timed(pa.validate)
        record("validate", spent)
        check("valid", report.ok)
        if rung["kind"] == "skew-table":
            ring, spent = timed(build_skew_ring, pa)
            record("ring", spent)
            check("ring_dim", ring.dim == ring_dim)
            del ring        # so that two tables never coexist in the peak RSS
            continue
        verdict, spent = timed(decide_separability, pa)
        record("decide_cert", spent)
        check("verdict", verdict.separable == expected)
        if verdict.certificate is not None:
            check("certificate", verdict.certificate.ok)
        if ring_dim <= oracle_up_to:
            fresh, _ = parsed()
            fresh.validate()
            oracle, spent = timed(oracle_separability, fresh)
            record("oracle", spent)
            check("oracle_agrees", oracle.separable == verdict.separable)
    out["seconds"] = {stage: round(statistics.median(ts), 4) for stage, ts in times.items()}
    out["runs_s"] = {stage: [round(t, 4) for t in ts] for stage, ts in times.items()}
    out["checks"] = checks
    out["ok"] = all(checks.values())
    out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


def run_child(checkout: Path, rung: dict, runs: int, oracle_up_to: int) -> dict:
    """`measure` in one fresh process on checkout's src/, or the reason it failed."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "SKEWALG_MAX_DIM": "100000000"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", rung["spec"],
            "--runs", str(runs), "--oracle-up-to", str(oracle_up_to)]
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**rung, "ok": False, "failure": "killed after %d s" % CHILD_TIMEOUT_S}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {**rung, "ok": False,
                "failure": "exit %d: %s" % (done.returncode, tail[0])}
    return json.loads(done.stdout.splitlines()[-1])


def src_digest(checkout: Path) -> str:
    """sha256 over the package's source files, names and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "skewalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--rung", dest="rungs", action="append", type=parse_spec)
    p.add_argument("--oracle-up-to", type=int, default=768)
    p.add_argument("--child", type=parse_spec, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child, args.runs, args.oracle_up_to)))
        return 0
    checkout = args.checkout.resolve()
    rungs = args.rungs or [parse_spec(s) for s in RUNGS]
    results = []
    for rung in rungs:
        res = run_child(checkout, rung, args.runs, args.oracle_up_to)
        results.append(res)
        shown = " ".join("%s %.3f" % kv for kv in res.get("seconds", {}).items())
        print("%-22s %s  %s  %s MB" % (rung["spec"], "ok" if res["ok"] else "FAILED",
                                       shown or res.get("failure"),
                                       res.get("peak_rss_mb", "-")), flush=True)
    report = {"tool": "tools/ladder.py", "src_sha256": src_digest(checkout),
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "runs": args.runs, "oracle_up_to": args.oracle_up_to, "rungs": results}
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if all(r["ok"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
