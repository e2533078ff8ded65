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


# -- subcommand handlers -----------------------------------------------------


def _cmd_group(args) -> dict:
    doc = _load_doc(args)
    op = doc.get("op")
    if op == "smith":
        s = smith_normal_form(IntMatrix.from_json(doc["matrix"]))
        return {
            "diagonal": s.diagonal,
            "left": s.left.to_json(),
            "right": s.right.to_json(),
        }
    if op == "homology":
        boundaries = json_shape(doc["boundaries"], list, "boundaries")
        groups = homology_of_complex([IntMatrix.from_json(b) for b in boundaries])
        return {"groups": [g.to_json() for g in groups]}
    if op in ("direct_sum", "tensor", "tor", "hom", "ext", "is_isomorphic"):
        a = FgAbGroup.from_json(doc["a"])
        b = FgAbGroup.from_json(doc["b"])
        if op == "is_isomorphic":
            return {"result": a.is_isomorphic(b)}
        return {"result": getattr(a, op)(b).to_json()}
    raise _Usage(f"unknown group operation {op!r}")


def _cmd_kunneth(args) -> dict:
    from .graded import GradedCohomology, betti, euler_characteristic, kunneth_product

    doc = _load_doc(args)
    x = GradedCohomology.from_json(doc["x"])
    y = GradedCohomology.from_json(doc["y"])
    prod = kunneth_product(x, y)
    return {
        "product": prod.to_json(),
        "betti": betti(prod).to_json(),
        "euler": euler_characteristic(prod),
    }


def _hilbert_spec(args):
    from .hilbert import CompactHilbertSpec, CuspidalHilbertSpec, cusp_dims_from_json

    if args.compact:
        return CompactHilbertSpec(args.n, args.dim_weight2)
    if args.h is None:
        raise _Usage("congruence quotients need --h (cusp count)")
    if args.cusp_dims:
        with open(args.cusp_dims, "r", encoding="utf-8") as fh:
            table = cusp_dims_from_json(_parse(fh.read()))
        return CuspidalHilbertSpec(args.n, args.h, table)
    return CuspidalHilbertSpec.uniform(args.n, args.h, args.uniform_cusp_dim)


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

    doc = _load_doc(args)
    check = doc.get("check")
    if check == "freed_witten":
        ambient = FgAbGroup.from_json(doc["ambient"])
        w3 = CohomologyElement.from_json(ambient, doc["w3"])
        h = CohomologyElement.from_json(ambient, doc["h"])
        return freed_witten_check(w3, h).to_json()
    if check == "mms":
        ambient = FgAbGroup.from_json(doc["ambient"])
        pd = CohomologyElement.from_json(ambient, doc["pd"])
        w3 = CohomologyElement.from_json(ambient, doc["w3"])
        h = CohomologyElement.from_json(ambient, doc["h"])
        return mms_instability_check(pd, w3, h).to_json()
    if check == "flux":
        g4 = RationalClass.from_strings(doc["g4"])
        p1 = json_shape(doc["p1"], list, "p1")
        verdict = flux_quantization_check(g4, [as_int(v) for v in p1])
        return verdict.to_json()
    if check == "d3":
        source = FgAbGroup.from_json(doc["source"])
        target = FgAbGroup.from_json(doc["target"])
        x = CohomologyElement.from_json(source, doc["x"])
        cup = IntMatrix.from_json(doc["cup_by_h"]) if "cup_by_h" in doc else None
        sq3 = IntMatrix.from_json(doc["sq3"]) if "sq3" in doc else None
        out = d3_action(x, as_int(doc["degree"]), cup_by_h=cup, sq3=sq3, target=target)
        return {"result": out.to_json()}
    if check == "hilbert":
        from .hilbert import spec_from_json

        return hilbert_anomaly_report(spec_from_json(doc["spec"])).to_json()
    raise _Usage(f"unknown anomaly check {check!r}")


def _cmd_steenrod(args) -> dict:
    from .steenrod import ModPRingPresentation, axiom_report, bockstein, parse_op_label
    from .steenrod import sq, st, w3_from_w2

    doc = _load_doc(args)
    pres = ModPRingPresentation.from_json(doc["presentation"])
    if "verify_to_degree" in doc:
        report = axiom_report(pres, as_int(doc["verify_to_degree"]))
        return {
            "checked": {kind.lower(): n for kind, n in report.checked.items()},
            "skipped": {kind.lower(): n for kind, n in report.skipped.items()},
            "violations": [str(v) for v in report.violations],
        }
    ev = json_shape(doc["evaluate"], dict, "the evaluation")
    x = pres.element(ModPRingPresentation.poly_from_json(ev["element"]))
    if ev["op"] == "w3_from_w2":
        out = w3_from_w2(x)
    else:
        kind, k = parse_op_label(ev["op"])
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
    p.add_argument("--dim-weight2", type=_nonneg, default=0, dest="dim_weight2")
    p.add_argument("--h", type=_nonneg, default=None, help="cusp count")
    p.add_argument("--cusp-dims", metavar="FILE", dest="cusp_dims")
    p.add_argument("--uniform-cusp-dim", type=_nonneg, default=0)
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
