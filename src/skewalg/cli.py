"""Command-line front end.

    skewalg validate     FILE            groupoid laws, action axioms, object decomposition
    skewalg components   FILE            connected components and transversal
    skewalg traces       FILE            all trace-map matrices of a valid action
    skewalg separability FILE [--oracle] [--global] [--isotropy]
    skewalg skew-table   FILE            basis multiplication table
    skewalg fuzz [--seed N] [--count N] [--max-morphisms N] [--max-dim N]

Reports are JSON on stdout and are byte-identical for identical inputs and
seeds; wall-clock timing goes to stderr.  Exit code 0 iff every requested
check passed; 1 on failed checks; 2 on unusable input.  A report is printed
as exactly `json.dumps(report, indent=2, sort_keys=True)`, written by
`render` in one pass: with `indent`, json leaves its C encoder for a
generator per container.  A vector of scalars, as `_vec` and `_mat` build
it, is written with one join.

`main` parses its arguments in one argparse pass.  When the first one names
a command, the rest go straight to that command's own subparser, which the
top-level parser would hand them to in any case; arguments it leaves over
go to the top-level parser's "unrecognized arguments" error, as
`parse_args` does.  Help, a missing command and an unknown command go
through the top-level parser.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys
import time
from json.encoder import encode_basestring_ascii

from .algebra import AlgebraError
from .fuzz import run_fuzz
from .instances import InstanceFormatError, load_instance
from .groupoid import GroupoidError, validate_groupoid
from .linalg import LinalgError
from .partial_action import ActionError, validate_partial_action
from .separability import (SeparabilityError, cross_check, decide_global,
                           decide_separability, isotropy_transport_psi,
                           isotropy_witness_transport, oracle_separability,
                           trace_between, trace_into, trace_total)
from .skew_ring import (InvalidSizeCap, SkewRingError, TensorTooLarge,
                        build_skew_ring)

MAP_CONVENTION = "annihilate_complement"


class _Scalars(list):
    """The `str`s of a vector's field scalars, which need no escape: ints
    and fractions print as digits, "-" and "/".  `render` writes one with
    one join."""


def _vec(v) -> list:
    return _Scalars(map(str, v))


def _mat(m) -> list:
    return [_Scalars(map(str, row)) for row in m.data]


def _family(fam) -> dict:
    if fam.is_empty:
        return {"empty": True}
    return {"empty": False, "particular": _vec(fam.particular),
            "kernel": [_vec(k) for k in fam.kernel_basis]}


def _certificate(cert) -> dict:
    return {
        "witness": _vec(cert.witness),
        "witness_family": _family(cert.witness_family),
        "tensor_dim": cert.tensor_dim,
        "summands": [[g, _vec(u), h, _vec(w)] for g, u, h, w in cert.summands],
        "checks": dict(cert.checks),
    }


def _verdict(v) -> dict:
    out = {
        "separable": v.separable,
        "witness": _vec(v.witness) if v.witness is not None else None,
        "per_component": [
            {"objects": list(c.objects), "separable": c.separable,
             "witness_family": _family(c.witness_family),
             "solved_objects": list(c.solved_objects)}
            for c in v.per_component],
    }
    if v.certificate is not None:
        out["certificate"] = _certificate(v.certificate)
    return out


def render(report) -> str:
    """`json.dumps(report, indent=2, sort_keys=True)`, written in one pass.

    A report holds only dicts with `str` keys, lists, tuples, `str`, `int`,
    `True`, `False` and `None`; anything else, a float or a subclass too,
    raises TypeError rather than risk a rendering that differs from json's.
    Strings are escaped by json's own ASCII escaper.  The one subclass
    rendered is `_Scalars`, the printed vectors, whose strings need no
    escape: each is written with one join, not one write per scalar.
    """
    # one growing buffer: a list holding every piece until a join
    # fragmented the heap enough to raise perfbench's peak_rss_mb by 4%
    out = io.StringIO()
    put = out.write

    def write(o, pad: str) -> None:
        t = type(o)
        if t is str:
            put(encode_basestring_ascii(o))
        elif t is int:
            put(int.__repr__(o))
        elif o is None or t is bool:
            put("null" if o is None else "true" if o else "false")
        elif not o and (t is dict or t is list or t is tuple or t is _Scalars):
            put("{}" if t is dict else "[]")
        elif t is _Scalars:
            inner = pad + "  "
            put('[\n%s"%s"\n%s]' % (inner, ('",\n%s"' % inner).join(o), pad))
        elif t is dict:
            inner = pad + "  "
            sep = "{\n" + inner
            for k in sorted(o):
                if type(k) is not str:
                    raise TypeError("report keys must be str, got %r" % (k,))
                put(sep + encode_basestring_ascii(k) + ": ")
                write(o[k], inner)
                sep = ",\n" + inner
            put("\n" + pad + "}")
        elif t is list or t is tuple:
            inner = pad + "  "
            sep = "[\n" + inner
            for v in o:
                put(sep)
                write(v, inner)
                sep = ",\n" + inner
            put("\n" + pad + "]")
        else:
            raise TypeError("cannot render %s in a report" % (t.__name__,))

    write(report, "")
    return out.getvalue()


def _load(path):
    inst = load_instance(path)
    head = {
        "instance": {"path": str(path), "digest": inst.digest},
        "metadata": {"field": str(inst.action.algebra.field),
                     "map_convention": MAP_CONVENTION},
    }
    return inst, head


def cmd_validate(args) -> tuple:
    inst, report = _load(args.file)
    pa = inst.action
    greport = validate_groupoid(pa.groupoid)
    report["groupoid_violations"] = [
        {"code": v.code, "message": v.message} for v in greport.violations]
    ok = greport.ok
    if ok:
        # the groupoid laws hold, so only the action axioms are left to check
        areport = validate_partial_action(pa)
        report["action_violations"] = [
            {"code": v.code, "message": v.message} for v in areport.violations]
        ok = areport.ok
        if ok:
            ok = report["object_decomposition"] = pa.has_object_decomposition()
    report["ok"] = ok
    return report, 0 if ok else 1


def cmd_components(args) -> tuple:
    inst, report = _load(args.file)
    partition = inst.action.groupoid.connected_components()
    report["classes"] = [list(c) for c in partition.classes]
    report["transversal"] = list(partition.transversal)
    report["ok"] = True
    return report, 0


def cmd_traces(args) -> tuple:
    inst, report = _load(args.file)
    pa = inst.action
    pa.ensure_valid()
    partition = pa.groupoid.connected_components()
    pairwise = []
    for cls in partition.classes:
        for i in cls:
            for j in cls:
                pairwise.append({"source": i, "target": j,
                                 "matrix": _mat(trace_between(pa, i, j))})
    report["trace_between"] = pairwise
    report["trace_into"] = [{"target": j, "matrix": _mat(trace_into(pa, j))}
                            for j in pa.groupoid.objects]
    report["trace_total"] = _mat(trace_total(pa))
    report["ok"] = True
    return report, 0


def cmd_separability(args) -> tuple:
    inst, report = _load(args.file)
    pa = inst.action
    ok = True
    # the oracle builds the tensor square, so a square over the size cap is
    # refused before the trace decision
    oracle = oracle_separability(pa) if args.oracle else None
    if args.use_global:
        verdict = decide_global(pa)
        report["decision_path"] = "global_transversal"
    else:
        verdict = decide_separability(pa)
        report["decision_path"] = "full_trace_system"
    report["verdict"] = _verdict(verdict)
    if verdict.certificate is not None:
        ok = ok and verdict.certificate.ok
    if oracle is not None:
        agree, a, a_ok = cross_check(pa, verdict, oracle)
        report["oracle"] = {"separable": oracle.separable,
                            "tensor_dim": oracle.tensor.dim,
                            "agrees_with_decision": agree}
        ok = ok and agree
        if a is not None:
            report["oracle"]["extracted_witness"] = _vec(a)
            report["oracle"]["extracted_witness_ok"] = a_ok
            ok = ok and a_ok
    if args.isotropy:
        transports = []
        for comp in verdict.per_component:
            if not comp.separable:
                continue
            tr = isotropy_witness_transport(pa, comp.objects,
                                            comp.witness_family.particular)
            entry = {"objects": list(comp.objects), "object": tr.obj,
                     "witness": _vec(tr.witness),
                     "arrows": dict(tr.arrows), "checks": dict(tr.checks)}
            ok = ok and all(tr.checks.values())
            psis = []
            for kobj, arrow in tr.arrows.items():
                if kobj == tr.obj:
                    continue
                psi = isotropy_transport_psi(pa, arrow)
                psis.append({"arrow": arrow, "source": psi.source_object,
                             "target": psi.target_object, "checks": dict(psi.checks)})
                ok = ok and all(psi.checks.values())
            entry["isotropy_isomorphisms"] = psis
            transports.append(entry)
        report["isotropy_transport"] = transports
    report["ok"] = ok
    return report, 0 if ok else 1


def cmd_skew_table(args) -> tuple:
    inst, report = _load(args.file)
    ring = build_skew_ring(inst.action)
    report["ring_dim"] = ring.dim
    report["basis"] = [[g, _vec(u)] for g, u in ring.basis]
    report["products"] = ring.multiplication_rows()
    report["ok"] = True
    return report, 0


def cmd_fuzz(args) -> tuple:
    report = run_fuzz(args.seed, args.count, args.max_morphisms, args.max_dim)
    report["command"] = "fuzz"
    report["metadata"] = {"map_convention": MAP_CONVENTION}
    report["ok"] = report["all_agree"]
    return report, 0 if report["ok"] else 1


def _int_at_least(low: int):
    """An argparse type: an int no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value
    parse.__name__ = "int"      # argparse names it in "invalid int value"
    return parse


@functools.lru_cache(maxsize=None)
def build_parser() -> tuple:
    """The top-level argument parser and each command's own subparser, by
    command name, built on the first call and shared afterwards."""
    p = argparse.ArgumentParser(prog="skewalg",
                                description="partial skew groupoid rings: "
                                            "validation, traces, separability")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {}

    def with_file(name, help):
        sp = commands[name] = sub.add_parser(name, help=help)
        sp.add_argument("file", help="instance file (JSON)")
        sp.add_argument("--out", help="also write the report to this path")
        return sp

    with_file("validate", "structural and axiom checks")
    with_file("components", "connected components")
    with_file("traces", "trace-map matrices")
    sp = with_file("separability", "decide and certify")
    sp.add_argument("--oracle", action="store_true",
                    help="also solve the defining tensor system and compare")
    sp.add_argument("--global", dest="use_global", action="store_true",
                    help="use the global-action single-object criterion")
    sp.add_argument("--isotropy", action="store_true",
                    help="transport witnesses to isotropy groups (global actions)")
    with_file("skew-table", "basis multiplication table")
    sp = commands["fuzz"] = sub.add_parser("fuzz", help="random differential testing")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=_int_at_least(0), default=10)
    sp.add_argument("--max-morphisms", type=_int_at_least(1), default=6)
    sp.add_argument("--max-dim", type=_int_at_least(1), default=6)
    sp.add_argument("--out", help="also write the report to this path")
    return p, commands


def parse_args(argv=None) -> argparse.Namespace:
    """`build_parser()[0].parse_args(argv)`, in one argparse pass when
    argv[0] names a command: the top-level parser would only hand the rest
    to that command's subparser and report what it leaves over."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    args.command = argv[0]
    return args


_HANDLERS = {
    "validate": cmd_validate,
    "components": cmd_components,
    "traces": cmd_traces,
    "separability": cmd_separability,
    "skew-table": cmd_skew_table,
    "fuzz": cmd_fuzz,
}


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    out = None
    with contextlib.ExitStack() as stack:
        try:
            # opened first, so an unwritable path fails before the command
            # runs; "a" leaves the file intact until the report is written,
            # in case --out names the instance file
            if args.out:
                out = stack.enter_context(open(args.out, "a", encoding="utf-8"))
            report, code = _HANDLERS[args.command](args)
        except (InstanceFormatError, OSError, ActionError, AlgebraError, GroupoidError,
                LinalgError, SeparabilityError, SkewRingError) as exc:
            # InvalidSizeCap and TensorTooLarge subclass SkewRingError but exit 2
            code = 2 if isinstance(exc, (InstanceFormatError, OSError, InvalidSizeCap,
                                         TensorTooLarge)) else 1
            report = {"command": args.command, "ok": False,
                      "error": {"type": type(exc).__name__, "message": str(exc)}}
        report.setdefault("command", args.command)
        text = render(report)
        print(text)
        if out is not None:
            out.truncate(0)
            out.write(text + "\n")
    print("elapsed_ms=%d" % int((time.perf_counter() - started) * 1000),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
