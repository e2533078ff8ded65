import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from helpers import allocation_cap, deadline
from modtopo.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- kcircle -------------------------------------------------------------


def test_kcircle_twisted_example(capsys):
    doc = invoke_json(
        capsys, "kcircle", "--genus", "1", "--chern", "0", "--twist", "3"
    )
    assert doc["K0"] == {"rank": 3, "torsion": []}
    assert doc["K1"] == {"rank": 3, "torsion": [3]}
    assert doc["path"] == "closed_form"


def test_kcircle_d3_path(capsys):
    doc = invoke_json(
        capsys, "kcircle", "--genus", "2", "--chern", "5", "--twist", "4", "--path", "d3"
    )
    assert doc["path"] == "d3"
    assert doc["K0"] == {"rank": 4, "torsion": [5]}
    assert doc["K1"] == {"rank": 4, "torsion": [4]}


def test_kcircle_negative_genus_is_usage_error(capsys):
    code, out, err = invoke(capsys, "kcircle", "--genus", "-1")
    assert code == 2
    assert out == ""


# -- hilbert ----------------------------------------------------------------


def test_hilbert_compact_betti_array(capsys):
    doc = invoke_json(
        capsys, "hilbert", "--n", "2", "--compact", "--dim-weight2", "5", "--betti"
    )
    assert doc == [1, 0, 22, 0, 1]


def test_hilbert_compact_default_document(capsys):
    doc = invoke_json(capsys, "hilbert", "--n", "2", "--compact", "--dim-weight2", "5")
    assert doc["betti"] == [1, 0, 22, 0, 1]
    assert doc["implied_volume"] == "6"
    assert doc["spec"]["compact"] is True


def test_hilbert_cuspidal_hodge(capsys, tmp_path):
    dims = write_json(tmp_path, "dims.json", {str(b): 1 for b in range(8)})
    doc = invoke_json(
        capsys,
        "hilbert",
        "--n",
        "3",
        "--h",
        "2",
        "--cusp-dims",
        dims,
        "--hodge",
    )
    middle = doc["hodge"][3]
    cusp = [e for e in middle["entries"] if e["part"] == "cusp"]
    assert sum(e["value"] for e in cusp) == 8


def test_hilbert_missing_h_is_usage_error(capsys):
    code, out, err = invoke(capsys, "hilbert", "--n", "2")
    assert code == 2
    assert out == ""


# -- group ---------------------------------------------------------------------


def test_group_tensor(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "in.json",
        {
            "op": "tensor",
            "a": {"rank": 0, "torsion": [4]},
            "b": {"rank": 0, "torsion": [6]},
        },
    )
    doc = invoke_json(capsys, "group", "--json", path)
    assert doc["result"] == {"rank": 0, "torsion": [2]}


def test_group_smith(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "in.json",
        {"op": "smith", "matrix": {"rows": 2, "cols": 2, "entries": [2, 4, 6, 8]}},
    )
    doc = invoke_json(capsys, "group", "--json", path)
    assert doc["diagonal"] == [2, 4]


def test_group_homology_domain_error(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "in.json",
        {
            "op": "homology",
            "boundaries": [
                {"rows": 1, "cols": 1, "entries": [1]},
                {"rows": 1, "cols": 1, "entries": [1]},
            ],
        },
    )
    code, out, err = invoke(capsys, "group", "--json", path)
    assert code == 1
    assert out == ""
    assert "NOT_A_COMPLEX" in err


def test_group_domain_error_partial_json(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "in.json",
        {
            "op": "homology",
            "boundaries": [
                {"rows": 1, "cols": 1, "entries": [1]},
                {"rows": 1, "cols": 1, "entries": [1]},
            ],
        },
    )
    code, out, err = invoke(capsys, "--partial", "group", "--json", path)
    assert code == 1
    assert json.loads(out)["error"] == "NOT_A_COMPLEX"


def test_group_is_isomorphic(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "in.json",
        {
            "op": "is_isomorphic",
            "a": {"rank": 0, "torsion": [2, 12]},
            "b": {"rank": 0, "torsion": [2, 12]},
        },
    )
    assert invoke_json(capsys, "group", "--json", path)["result"] is True


@pytest.mark.parametrize(
    "doc",
    [
        {"op": "smith", "matrix": {"rows": 10**8, "cols": 0, "entries": []}},
        {"op": "homology", "boundaries": [{"rows": 0, "cols": 10**8, "entries": []}]},
        {"op": "homology", "boundaries": [{"rows": 10**8, "cols": 0, "entries": []}]},
    ],
    ids=["smith", "homology cols", "homology rows"],
)
def test_group_refuses_a_matrix_side_past_the_cap(capsys, tmp_path, doc):
    path = write_json(tmp_path, "in.json", doc)
    with deadline(1, "the matrix was built"), allocation_cap(2**20, "a refused matrix"):
        code, out, err = invoke(capsys, "group", "--json", path)
    assert (code, out) == (1, "")
    assert err.startswith("error[INVALID_INPUT]: a matrix side is at most 65536")
    assert err.count("\n") == 1


def test_group_smith_refuses_transforms_past_the_cap(capsys, tmp_path):
    # each side is within the document cap; the transforms are not
    doc = {"op": "smith", "matrix": {"rows": 65536, "cols": 0, "entries": []}}
    path = write_json(tmp_path, "in.json", doc)
    with deadline(1, "the transforms were built"), allocation_cap(2**20, "refused transforms"):
        code, out, err = invoke(capsys, "group", "--json", path)
    assert (code, out) == (1, "")
    assert err == "error[INVALID_INPUT]: the transforms of a 65536 x 0 matrix exceed 4194304 entries\n"


# -- kunneth ----------------------------------------------------------------------


def test_kunneth_surface_squared(capsys, tmp_path):
    surf = {
        "top_degree": 2,
        "groups": [
            {"rank": 1, "torsion": []},
            {"rank": 2, "torsion": []},
            {"rank": 1, "torsion": []},
        ],
    }
    path = write_json(tmp_path, "in.json", {"x": surf, "y": surf})
    doc = invoke_json(capsys, "kunneth", "--json", path)
    assert doc["betti"] == [1, 4, 6, 4, 1]
    assert doc["euler"] == 0


# -- anomaly -----------------------------------------------------------------------


def test_anomaly_freed_witten(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "in.json",
        {
            "check": "freed_witten",
            "ambient": {"rank": 0, "torsion": [2]},
            "w3": {"free": [], "torsion": [1]},
            "h": {"free": [], "torsion": [1]},
        },
    )
    doc = invoke_json(capsys, "anomaly", "--json", path)
    assert doc["anomaly_free"] is True


def test_anomaly_flux(capsys, tmp_path):
    path = write_json(
        tmp_path, "in.json", {"check": "flux", "g4": ["1/2"], "p1": [2]}
    )
    doc = invoke_json(capsys, "anomaly", "--json", path)
    assert doc == {"defect": ["0"], "quantized": True}


def test_anomaly_hilbert_report(capsys, tmp_path):
    path = write_json(
        tmp_path,
        "in.json",
        {
            "check": "hilbert",
            "spec": {"n": 3, "h": 1, "cusp_dims": {str(b): 1 for b in range(8)}},
        },
    )
    doc = invoke_json(capsys, "anomaly", "--json", path)
    assert sum(e["value"] for e in doc["cusp_h3_dims"]) == 8


D3_DOC = {
    "check": "d3",
    "source": {"rank": 1, "torsion": []},
    "target": {"rank": 1, "torsion": []},
    "x": {"free": [1]},
    "sq3": {"rows": 1, "cols": 1, "entries": [7]},
}


def test_anomaly_d3_applies_sq3_from_degree_three(capsys, tmp_path):
    path = write_json(tmp_path, "in.json", {**D3_DOC, "degree": 3})
    doc = invoke_json(capsys, "anomaly", "--json", path)
    assert doc == {"result": {"free": [7], "torsion": []}}


@pytest.mark.parametrize("degree", [2, -4])
def test_anomaly_d3_sq3_below_degree_three_is_domain_error(capsys, tmp_path, degree):
    path = write_json(tmp_path, "in.json", {**D3_DOC, "degree": degree})
    code, out, err = invoke(capsys, "anomaly", "--json", path)
    assert code == 1
    assert out == ""
    assert "INVALID_INPUT" in err and "Traceback" not in err


def test_hilbert_betti_beyond_2_53_is_a_decimal_string(capsys):
    argv = ["hilbert", "--n", "2", "--compact", "--dim-weight2", "10000000000000000", "--betti"]
    assert invoke_json(capsys, *argv) == [1, 0, "40000000000000002", 0, 1]


@pytest.mark.parametrize(
    "w3, shown",
    [(2**53 - 1, 2**53), (2**53 + 1, str(2**53 + 2)), (-(2**53) - 3, str(-(2**53) - 2))],
    ids=["2^53 stays a number", "beyond 2^53", "below -2^53"],
)
def test_freed_witten_coordinates_beyond_2_53_are_decimal_strings(capsys, tmp_path, w3, shown):
    doc = {
        "check": "freed_witten",
        "ambient": {"rank": 1, "torsion": []},
        "w3": {"free": [w3]},
        "h": {"free": [1]},
    }
    out = invoke_json(capsys, "anomaly", "--json", write_json(tmp_path, "in.json", doc))
    assert out == {"anomaly_free": False, "obstruction": {"free": [shown], "torsion": []}}


# -- steenrod -----------------------------------------------------------------------


def test_steenrod_evaluate(capsys, tmp_path):
    pres = {
        "p": 2,
        "generators": [{"name": "x", "degree": 1}],
        "relations": [],
        "ops": [],
    }
    path = write_json(
        tmp_path,
        "in.json",
        {
            "presentation": pres,
            "evaluate": {
                "op": "Sq1",
                "element": [{"coeff": 1, "monomial": {"x": 3}}],
            },
        },
    )
    doc = invoke_json(capsys, "steenrod", "--json", path)
    assert doc["value"] == [{"coeff": 1, "monomial": {"x": 4}}]


def test_steenrod_verify(capsys, tmp_path):
    pres = {
        "p": 2,
        "generators": [{"name": "x", "degree": 1}],
        "relations": [[{"coeff": 1, "monomial": {"x": 3}}]],
        "ops": [],
    }
    path = write_json(
        tmp_path, "in.json", {"presentation": pres, "verify_to_degree": 6}
    )
    doc = invoke_json(capsys, "steenrod", "--json", path)
    assert doc["violations"] == []


# -- self-test ---------------------------------------------------------------------


def test_self_test_passes(capsys):
    code, out, err = invoke(capsys, "self-test", "--max-genus", "1")
    assert code == 0
    assert err.count("pass") == 2
    doc = json.loads(out)
    assert all(suite["ok"] for suite in doc.values())


def test_self_test_narrow_sweep_reports_fewer_cases(capsys):
    wide = invoke_json(capsys, "self-test", "--max-genus", "2")
    narrow = invoke_json(capsys, "self-test", "--max-genus", "0")
    key = "k-groups closed-form vs d3"
    assert narrow[key]["cases"] < wide[key]["cases"]


def test_self_test_injected_fault_fails(capsys, monkeypatch):
    import modtopo.selftest
    from modtopo.abgroup import FgAbGroup
    from modtopo.ktheory import KPair

    k_groups_via_d3, compact_betti = modtopo.selftest.k_groups_via_d3, modtopo.selftest.compact_betti

    def wrong_at_the_origin(spec):
        pair = k_groups_via_d3(spec)
        if (spec.genus, spec.chern, spec.twist) == (0, 0, 0):
            return KPair(pair.k0.direct_sum(FgAbGroup.cyclic(2)), pair.k1)
        return pair

    def off_by_one(spec, m):
        return compact_betti(spec, m) + ((spec.n, spec.dim_weight2, m) == (1, 0, 0))

    monkeypatch.setattr(modtopo.selftest, "k_groups_via_d3", wrong_at_the_origin)
    monkeypatch.setattr(modtopo.selftest, "compact_betti", off_by_one)
    code, out, err = invoke(capsys, "self-test", "--max-genus", "0")
    assert code == 1
    assert out == ""
    assert err == (
        "[FAIL] k-groups closed-form vs d3: 66 cases, FAILED 1: (0, 0, 0)\n"
        "[FAIL] hilbert hodge sums vs betti: 384 cases, FAILED 1: ('compact', 1, 0, 0)\n"
        "error[DOMAIN_ERROR]: k-groups closed-form vs d3: 1 of 66 cases failed; "
        "hilbert hodge sums vs betti: 1 of 384 cases failed\n"
    )


def test_self_test_reports_a_cuspidal_hodge_sum_failure(monkeypatch):
    import modtopo.selftest
    from modtopo.hilbert import CuspidalBetti

    cuspidal_betti = modtopo.selftest.cuspidal_betti

    def off_by_one(spec, m):
        betti = cuspidal_betti(spec, m)
        if (spec.n, spec.num_cusps, spec.dims_by_cardinality(0), m) == (2, 3, 1, 4):
            return CuspidalBetti(betti.univ, betti.eis, betti.cusp + 1, betti.total + 1)
        return betti

    monkeypatch.setattr(modtopo.selftest, "cuspidal_betti", off_by_one)
    assert modtopo.selftest.hodge_sum_sweep().failures == (("cuspidal", 2, 3, 1, 4),)


def test_self_test_refuses_a_genus_the_d3_path_refuses(capsys):
    from modtopo.ktheory import MAX_D3_GENUS

    genus = MAX_D3_GENUS + 1
    with deadline(2, "the sweep started"), allocation_cap(2**20, "self-test"):
        code, out, err = invoke(capsys, "self-test", "--max-genus", str(genus))
    assert (code, out) == (1, "")
    assert err == f"error[INVALID_INPUT]: the d3 path takes genus <= {MAX_D3_GENUS}; the sweep reaches {genus}\n"


def test_self_test_lists_every_failure_on_stderr(capsys, monkeypatch):
    import modtopo.selftest
    from modtopo.selftest import SweepReport

    report = SweepReport("sweep", 9, ((0, 1, 2), (3, 4, 5)))
    assert report.summary() == "sweep: 9 cases, FAILED 2: (0, 1, 2), (3, 4, 5)"
    monkeypatch.setattr(modtopo.selftest, "k_path_sweep", lambda **_: report)
    code, out, err = invoke(capsys, "self-test", "--max-genus", "0")
    assert code == 1
    assert out == ""
    assert "FAILED 2: (0, 1, 2), (3, 4, 5)" in err
    assert "sweep: 2 of 9 cases failed" in err


# -- output contract -----------------------------------------------------------------


def test_output_round_trips_byte_identically(capsys, tmp_path):
    doc = invoke_json(capsys, "kcircle", "--genus", "3", "--chern", "2", "--twist", "1")
    first = json.dumps(doc, indent=2, sort_keys=True)
    assert json.dumps(json.loads(first), indent=2, sort_keys=True) == first


def test_unknown_subcommand_exits_two(capsys):
    code, out, err = invoke(capsys, "frobnicate")
    assert code == 2
    assert out == ""


def test_unknown_flag_exits_two(capsys):
    code, out, err = invoke(capsys, "kcircle", "--genus", "1", "--frob", "2")
    assert code == 2
    assert out == ""


def test_missing_input_doc_is_usage_error(capsys, monkeypatch):
    import sys as _sys

    monkeypatch.setattr(_sys.stdin, "isatty", lambda: True)
    code, out, err = invoke(capsys, "group")
    assert code == 2
    assert out == ""


def test_non_object_document_is_domain_error(capsys, monkeypatch):
    import io
    import sys as _sys

    monkeypatch.setattr(_sys, "stdin", io.StringIO("[1, 2]"))
    code, out, err = invoke(capsys, "group")
    assert code == 1
    assert out == ""
    assert "INVALID_INPUT" in err and "Traceback" not in err


def test_zero_denominator_is_domain_error(capsys, tmp_path):
    path = write_json(tmp_path, "in.json", {"check": "flux", "g4": ["1/0"], "p1": [2]})
    code, out, err = invoke(capsys, "anomaly", "--json", path)
    assert code == 1
    assert out == ""
    assert "INVALID_INPUT" in err and "Traceback" not in err


def test_steenrod_verify_reports_checked_and_skipped(capsys, tmp_path):
    pres = {
        "p": 2,
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
        "relations": [[{"coeff": 1, "monomial": {"x": 3}}, {"coeff": 1, "monomial": {"y": 2}}]],
        "ops": [{"op": "Sq1", "gen": "y", "value": []}],
    }
    path = write_json(tmp_path, "in.json", {"presentation": pres, "verify_to_degree": 10})
    doc = invoke_json(capsys, "steenrod", "--json", path)
    assert doc["violations"] == []
    # Sq^1 x is missing; Sq^6 of the relation, its square, is not checked
    assert doc["checked"] == {"bockstein": 1, "cartan": 0}
    assert doc["skipped"] == {"bockstein": 1, "cartan": 5}


def test_scalar_in_place_of_a_group_is_domain_error(capsys, monkeypatch):
    import io
    import sys as _sys

    doc = {"op": "tensor", "a": 5, "b": {"rank": 1}}
    monkeypatch.setattr(_sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, err = invoke(capsys, "group")
    assert code == 1
    assert out == ""
    assert "INVALID_INPUT" in err and "Traceback" not in err


def test_cusp_dims_file_holding_an_array_is_domain_error(capsys, tmp_path):
    path = write_json(tmp_path, "dims.json", [1, 1])
    code, out, err = invoke(capsys, "hilbert", "--n", "1", "--h", "1", "--cusp-dims", path)
    assert code == 1
    assert out == ""
    assert "INVALID_INPUT" in err and "Traceback" not in err


def test_float_or_bool_flux_coordinate_is_usage_error(capsys, tmp_path):
    for g4 in ([0.1], [True]):
        path = write_json(tmp_path, "in.json", {"check": "flux", "g4": g4, "p1": [2]})
        code, out, err = invoke(capsys, "anomaly", "--json", path)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err


def _steenrod_doc(tmp_path, p, label, monomial):
    pres = {"p": p, "generators": [{"name": "x", "degree": 1 if p == 2 else 2}]}
    evaluate = {"op": label, "element": [{"coeff": 1, "monomial": monomial}]}
    return write_json(tmp_path, "in.json", {"presentation": pres, "evaluate": evaluate})


@pytest.mark.parametrize(
    "p,label,monomial,rendered",
    [(2, "Sq2", {"x": 2}, "x^4"), (2, "sq2", {"x": 2}, "x^4"), (2, "beta", {"x": 1}, "x^2"), (3, "St1", {"x": 1}, "x^3")],
)
def test_steenrod_accepts_operation_labels(capsys, tmp_path, p, label, monomial, rendered):
    doc = invoke_json(capsys, "steenrod", "--json", _steenrod_doc(tmp_path, p, label, monomial))
    assert doc["rendered"] == rendered


@pytest.mark.parametrize("label", ["Xq1", "Sq"])
def test_steenrod_unknown_operation_label_is_usage_error(capsys, tmp_path, label):
    code, out, err = invoke(capsys, "steenrod", "--json", _steenrod_doc(tmp_path, 2, label, {"x": 1}))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "gens,monomial",
    [([f"g{i}" for i in range(2000)], {f"g{i}": 1 for i in range(2000)}), (["x"], {"x": 2**600})],
    ids=["2,000 generators", "x^(2^600)"],
)
def test_steenrod_refuses_a_monomial_past_the_evaluation_depth_as_a_process(gens, monomial):
    doc = {
        "presentation": {"p": 2, "generators": [{"name": g, "degree": 1} for g in gens]},
        "evaluate": {"op": "Sq1", "element": [{"coeff": 1, "monomial": monomial}]},
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "modtopo.cli", "steenrod"],
        input=json.dumps(doc), capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error[INVALID_INPUT]: a monomial needs evaluation depth ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv,doc",
    [
        (("hilbert", "--n", "40", "--h", "1"), None),  # the default output echoes the table
        (("anomaly", "--json"), {"check": "hilbert", "spec": {"n": 40, "h": 1, "cusp_dims": {"0": 1}}}),
        (("hilbert", "--n", "100000", "--h", "1"), None),  # refused before any Betti number
        (("hilbert", "--n", "1000000000", "--h", "1", "--cusp-dims"), {"0": 1}),
        (("anomaly", "--json"), {"check": "hilbert", "spec": {"n": 10**9, "h": 1, "cusp_dims": {"0": 1}}}),
    ],
)
def test_oversized_cusp_table_is_domain_error_without_allocating(capsys, tmp_path, argv, doc):
    if doc is not None:
        argv = (*argv, write_json(tmp_path, "in.json", doc))
    with deadline(1, "the cusp table was built"), allocation_cap(2**20, "a list sized by n"):
        code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "INVALID_INPUT" in err and "Traceback" not in err


def test_hilbert_betti_costs_what_the_answer_costs(capsys):
    # a shared cusp dimension is folded into n + 1 sums, so no 2^n table is built
    with allocation_cap(30 * 2**20, "hilbert --n 20 --betti"):
        code, out, err = invoke(capsys, "hilbert", "--n", "20", "--h", "1", "--betti")
    assert (code, err) == (0, "")
    assert len(json.loads(out)) == 41
    with deadline(1, "hilbert --n 1000 --betti"):
        doc = invoke_json(capsys, "hilbert", "--n", "1000", "--h", "1", "--uniform-cusp-dim", "2", "--betti")
    assert len(doc) == 2001 and int(doc[1000]) == comb(1000, 500) + 1 + 2 * 2**1000  # univ + eis + cusp


@pytest.mark.parametrize("dims", [{"0": 1, "1": 2, "01": 3}, {"0": 1, " 1": 2}])
def test_a_cusp_bitmask_spelled_twice_or_padded_is_a_usage_error(capsys, tmp_path, dims):
    path = write_json(tmp_path, "dims.json", dims)
    code, out, err = invoke(capsys, "hilbert", "--n", "1", "--h", "1", "--cusp-dims", path)
    assert (code, out) == (2, "")
    assert "canonical" in err and "Traceback" not in err
    doc = {"check": "hilbert", "spec": {"n": 1, "h": 1, "cusp_dims": dims}}
    code, out, err = invoke(capsys, "anomaly", "--json", write_json(tmp_path, "in.json", doc))
    assert (code, out) == (2, "")
    assert "canonical" in err and "Traceback" not in err


@pytest.mark.parametrize("compact", ["false", 0, None])
def test_anomaly_hilbert_compact_must_be_a_boolean(capsys, tmp_path, compact):
    spec = {"n": 2, "compact": compact, "h": 1, "cusp_dims": {str(b): 1 for b in range(4)}}
    path = write_json(tmp_path, "in.json", {"check": "hilbert", "spec": spec})
    code, out, err = invoke(capsys, "anomaly", "--json", path)
    assert (code, out) == (1, "")
    assert err == f"error[INVALID_INPUT]: compact must be a JSON boolean, not {type(compact).__name__}\n"


@pytest.mark.parametrize("source", ["stdin", "--json", "--cusp-dims"])
def test_a_deeply_nested_document_is_a_usage_error(capsys, monkeypatch, tmp_path, source):
    import io
    import sys as _sys

    text = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(text)
    argv = {
        "stdin": ("group",),
        "--json": ("group", "--json", str(path)),
        "--cusp-dims": ("hilbert", "--n", "2", "--h", "1", "--cusp-dims", str(path)),
    }[source]
    monkeypatch.setattr(_sys, "stdin", io.StringIO(text))
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("usage error") and "Traceback" not in err


BILLION_TENSOR = '{"op":"tensor","a":{"rank":1000000000,"torsion":[2]},"b":{"rank":1000000000,"torsion":[3]}}'


@pytest.mark.parametrize(
    "argv,doc",
    [
        (("group",), json.loads(BILLION_TENSOR)),
        (("group",), {"op": "hom", "a": {"rank": 10**9, "torsion": [2]}, "b": {"rank": 0, "torsion": [3]}}),
        (("group",), {"op": "ext", "a": {"rank": 0, "torsion": [2]}, "b": {"rank": 10**9, "torsion": []}}),
        (
            ("kunneth",),
            {
                "x": {"top_degree": 0, "groups": [{"rank": 10**9, "torsion": [2]}]},
                "y": {"top_degree": 0, "groups": [{"rank": 1, "torsion": [3]}]},
            },
        ),
        (  # every part lists 10^6 + 2 factors, under the cap; the 882 parts together do not
            ("kunneth",),
            {
                "x": {"top_degree": 20, "groups": [{"rank": 10**6, "torsion": [2]}] * 21},
                "y": {"top_degree": 20, "groups": [{"rank": 1, "torsion": [3]}] * 21},
            },
        ),
    ],
    ids=["group tensor", "group hom", "group ext", "kunneth", "kunneth across degrees"],
)
def test_a_billion_rank_is_refused_before_its_torsion_is_listed(capsys, tmp_path, argv, doc):
    path = write_json(tmp_path, "in.json", doc)
    with deadline(1, "the torsion list was built"), allocation_cap(2**20, "a refused torsion list"):
        code, out, err = invoke(capsys, *argv, "--json", path)
    assert (code, out) == (1, "")
    assert err.startswith("error[INVALID_INPUT]: ") and err.endswith(" torsion factors, past 1048576\n")
    assert err.count("\n") == 1


def test_a_billion_rank_tensor_is_refused_as_a_process():
    import resource

    def cap_memory():  # a tensor built unguarded would otherwise take the machine's memory
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "modtopo.cli", "group"],
        input=BILLION_TENSOR, capture_output=True, text=True, env=env, timeout=10, preexec_fn=cap_memory,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error[INVALID_INPUT]: tensor lists 2000000001 torsion factors, past 1048576\n"
