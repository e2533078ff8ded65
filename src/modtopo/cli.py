"""Command-line front end with JSON input/output and stable exit codes.

Exit codes: 0 success, 1 domain error (a raised DomainError, e.g.
NOT_A_COMPLEX), 2 usage error.  On success exactly one JSON document is
written to standard output (sorted keys, two-space indent, every integer
beyond 2**53 as a decimal string); diagnostics go to standard error.  On
nonzero exit standard output stays empty unless ``--partial`` is passed.

Each subcommand handler imports the modules it uses, so one process loads
only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .abgroup import (
    FgAbGroup,
    IntMatrix,
    as_int,
    homology_of_complex,
    json_int,
    json_list,
    json_record,
    json_shape,
    smith_normal_form,
)
from .errors import DomainError


class _Usage(Exception):
    pass


def _big_ints_as_strings(doc):
    if isinstance(doc, dict):
        return {k: _big_ints_as_strings(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_big_ints_as_strings(v) for v in doc]
    return json_int(doc) if type(doc) is int else doc


def _emit(doc) -> None:
    # an answer is printed in full, however many digits it has; the
    # interpreter's limit on int-to-string conversion is lifted only here
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(_big_ints_as_strings(doc), indent=2, sort_keys=True), flush=True)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _nonneg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return n


def _parse(text: str):
    # the decoder recurses once per nesting level
    try:
        return json.loads(text)
    except RecursionError:
        raise _Usage("the JSON document is nested too deeply") from None


def _load_doc(args) -> dict:
    if getattr(args, "json", None):
        with open(args.json, "r", encoding="utf-8") as fh:
            doc = _parse(fh.read())
    elif not sys.stdin.isatty() and (data := sys.stdin.read()).strip():
        doc = _parse(data)
    else:
        raise _Usage("this subcommand needs a JSON document (--json FILE or stdin)")
    return json_shape(doc, dict, "the document")


def _tagged(doc: dict, tag: str, what: str, kinds: dict) -> list:
    """The kind that a document's ``tag`` key names, then the values of the
    other keys that kind takes, read by its readers (see json_record)."""
    kind = doc.get(tag)
    if type(kind) is not str or kind not in kinds:
        raise _Usage(f"unknown {what} {kind!r}; the key {tag!r} takes {', '.join(kinds)}")
    return json_record(doc, f"a {kind} document", **{tag: None}, **kinds[kind])


# -- subcommand handlers -----------------------------------------------------


def _cmd_group(args) -> dict:
    pair = {"a": FgAbGroup.from_json, "b": FgAbGroup.from_json}
    ops = {
        "smith": {"matrix": IntMatrix.from_json},
        "homology": {"boundaries": json_list(IntMatrix.from_json, "boundaries")},
        **dict.fromkeys(("direct_sum", "tensor", "tor", "hom", "ext", "is_isomorphic"), pair),
    }
    op, *values = _tagged(_load_doc(args), "op", "group operation", ops)
    if op == "smith":
        s = smith_normal_form(*values)
        return {
            "diagonal": s.diagonal,
            "left": s.left.to_json(),
            "right": s.right.to_json(),
        }
    if op == "homology":
        return {"groups": [g.to_json() for g in homology_of_complex(*values)]}
    a, b = values
    if op == "is_isomorphic":
        return {"result": a.is_isomorphic(b)}
    return {"result": getattr(a, op)(b).to_json()}


def _cmd_kunneth(args) -> dict:
    from .graded import GradedCohomology, betti, euler_characteristic, kunneth_product

    read = GradedCohomology.from_json
    prod = kunneth_product(*json_record(_load_doc(args), "a kunneth document", x=read, y=read))
    return {
        "product": prod.to_json(),
        "betti": betti(prod).to_json(),
        "euler": euler_characteristic(prod),
    }


def _hilbert_spec(args):
    from .hilbert import CompactHilbertSpec, CuspidalHilbertSpec, cusp_dims_from_json

    if args.compact:  # a flag the chosen quotient does not read is refused
        if (args.h, args.cusp_dims, args.uniform_cusp_dim) != (None, None, None):
            raise _Usage("--compact takes no --h, --cusp-dims or --uniform-cusp-dim")
        return CompactHilbertSpec(args.n, args.dim_weight2 or 0)
    if args.h is None:
        raise _Usage("congruence quotients need --h (cusp count)")
    if args.dim_weight2 is not None or None not in (args.cusp_dims, args.uniform_cusp_dim):
        raise _Usage("--h takes no --dim-weight2, nor both --cusp-dims and --uniform-cusp-dim")
    if args.cusp_dims is not None:
        with open(args.cusp_dims, "r", encoding="utf-8") as fh:
            table = cusp_dims_from_json(_parse(fh.read()))
        return CuspidalHilbertSpec(args.n, args.h, table)
    return CuspidalHilbertSpec.uniform(args.n, args.h, args.uniform_cusp_dim or 0)


def _cmd_hilbert(args):
    from .hilbert import CompactHilbertSpec, betti_total, compact_implied_volume, hodge_slice

    spec = _hilbert_spec(args)
    degrees = range(2 * spec.n + 1)
    if args.betti and not args.hodge:
        return [betti_total(spec, m) for m in degrees]
    doc = {"spec": spec.to_json()}  # a cusp table past the cap is refused before any work
    if args.betti or not args.hodge:
        doc["betti"] = [betti_total(spec, m) for m in degrees]
    if args.hodge:
        doc["hodge"] = [hodge_slice(spec, m).to_json() for m in degrees]
    elif isinstance(spec, CompactHilbertSpec):
        doc["implied_volume"] = str(compact_implied_volume(spec))
    return doc


def _cmd_kcircle(args) -> dict:
    from .ktheory import CircleBundleSpec, k_groups, k_groups_via_d3

    spec = CircleBundleSpec(args.genus, args.chern, args.twist)
    pair = k_groups_via_d3(spec) if args.path == "d3" else k_groups(spec)
    doc = pair.to_json()
    doc["path"] = "d3" if args.path == "d3" else "closed_form"
    return doc


def _cmd_anomaly(args) -> dict:
    from .anomaly import (
        CohomologyElement,
        RationalClass,
        d3_action,
        flux_quantization_check,
        freed_witten_check,
        hilbert_anomaly_report,
        mms_instability_check,
    )

    group, matrix = FgAbGroup.from_json, (IntMatrix.from_json, None)
    checks = {  # an element (None: as given) is read against its group below
        "freed_witten": {"ambient": group, "w3": None, "h": None},
        "mms": {"ambient": group, "pd": None, "w3": None, "h": None},
        "flux": {"g4": RationalClass.from_strings, "p1": json_list(as_int, "p1")},
        "d3": {"source": group, "target": group, "x": None, "degree": as_int, "cup_by_h": matrix, "sq3": matrix},
        "hilbert": {"spec": None},  # read by spec_from_json, whose module only this check imports
    }
    check, *values = _tagged(_load_doc(args), "check", "anomaly check", checks)
    if check in ("freed_witten", "mms"):
        ambient, *elements = values
        elements = [CohomologyElement.from_json(ambient, e) for e in elements]
        return (freed_witten_check if check == "freed_witten" else mms_instability_check)(*elements).to_json()
    if check == "flux":
        return flux_quantization_check(*values).to_json()
    if check == "d3":
        source, target, x, degree, cup, sq3 = values
        out = d3_action(CohomologyElement.from_json(source, x), degree, cup_by_h=cup, sq3=sq3, target=target)
        return {"result": out.to_json()}
    from .hilbert import spec_from_json

    return hilbert_anomaly_report(spec_from_json(*values)).to_json()


def _cmd_steenrod(args) -> dict:
    from .steenrod import ModPRingPresentation, axiom_report, bockstein, parse_op_label
    from .steenrod import sq, st, w3_from_w2

    doc = _load_doc(args)
    poly = ModPRingPresentation.poly_from_json
    if verify := "verify_to_degree" in doc:
        task = {"verify_to_degree": as_int}
    else:
        task = {"evaluate": lambda ev: json_record(ev, "the evaluation", op=None, element=poly)}
    what = f"a steenrod document {'with' if verify else 'without'} 'verify_to_degree'"
    pres, task = json_record(doc, what, presentation=ModPRingPresentation.from_json, **task)
    if verify:
        report = axiom_report(pres, task)
        return {
            "checked": {kind.lower(): n for kind, n in report.checked.items()},
            "skipped": {kind.lower(): n for kind, n in report.skipped.items()},
            "violations": [str(v) for v in report.violations],
        }
    op, element = task
    x = pres.element(element)
    if op == "w3_from_w2":
        out = w3_from_w2(x)
    else:
        kind, k = parse_op_label(op)
        out = bockstein(x) if kind == "beta" else (sq if kind == "sq" else st)(k, x)
    return {
        "value": pres.poly_to_json(out.poly),
        "rendered": str(out),
    }


def _cmd_self_test(args):
    from .selftest import hodge_sum_sweep, k_path_sweep

    reports = [k_path_sweep(max_genus=args.max_genus), hodge_sum_sweep()]
    for rep in reports:
        print(f"[{'pass' if rep.ok else 'FAIL'}] {rep.summary()}", file=sys.stderr)
    failed = [f"{r.name}: {len(r.failures)} of {r.cases} cases failed" for r in reports if not r.ok]
    if failed:
        raise DomainError("; ".join(failed))
    return {r.name: {"cases": r.cases, "ok": r.ok} for r in reports}


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modtopo",
        description="Exact calculators for abelian-group cohomology, "
        "Hilbert variety tables, circle-bundle K-theory, Steenrod "
        "operations, and anomaly checks.",
    )
    parser.add_argument(
        "--partial",
        action="store_true",
        help="emit partial JSON on domain errors instead of an empty stdout",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("group", help="abelian group and matrix calculators")
    p.add_argument("--json", metavar="FILE", help="input document")
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("kunneth", help="graded product of two cohomologies")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(handler=_cmd_kunneth)

    p = sub.add_parser("hilbert", help="Hilbert modular variety tables")
    p.add_argument("--n", type=_nonneg, required=True, help="half-plane factors")
    p.add_argument("--compact", action="store_true", help="co-compact quotient")
    p.add_argument("--dim-weight2", type=_nonneg, default=None, dest="dim_weight2")
    p.add_argument("--h", type=_nonneg, default=None, help="cusp count")
    p.add_argument("--cusp-dims", metavar="FILE", dest="cusp_dims")
    p.add_argument("--uniform-cusp-dim", type=_nonneg, default=None)
    p.add_argument("--betti", action="store_true")
    p.add_argument("--hodge", action="store_true")
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("kcircle", help="K-groups of a circle bundle")
    p.add_argument("--genus", type=_nonneg, required=True)
    p.add_argument("--chern", type=int, default=0)
    p.add_argument("--twist", type=_nonneg, default=0)
    p.add_argument("--path", choices=("closed", "d3"), default="closed")
    p.set_defaults(handler=_cmd_kcircle)

    p = sub.add_parser("anomaly", help="consistency and quantization checks")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(handler=_cmd_anomaly)

    p = sub.add_parser("steenrod", help="evaluate operations on a presented ring")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(handler=_cmd_steenrod)

    p = sub.add_parser("self-test", help="run the built-in cross-check sweeps")
    p.add_argument("--max-genus", type=_nonneg, default=4, dest="max_genus")
    p.set_defaults(handler=_cmd_self_test)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        try:
            doc, status = args.handler(args), 0
        except DomainError as exc:
            print(f"error[{exc.code}]: {exc}", file=sys.stderr)
            if not args.partial:
                return 1
            doc, status = {"error": exc.code, "message": str(exc)}, 1
        _emit(doc)  # a closed stdout raises OSError here
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"usage error: {exc!r}", file=sys.stderr)
        return 2
    return status


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what is left in the buffer goes to devnull, so
        # the interpreter's flush at exit has nothing to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    main()
