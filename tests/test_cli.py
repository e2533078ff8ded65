import json

import pytest

from helpers import deadline
from modtopo.cli import run, self_test


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


def test_self_test_injected_fault_fails(capsys):
    code, out, err = invoke(capsys, "self-test", "--max-genus", "0", "--inject-fault")
    assert code == 1
    assert out == ""
    assert "(0, 0, 0)" in err


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


def test_self_test_entry_point(capsys):
    assert self_test(["--max-genus", "0"]) == 0
    capsys.readouterr()


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
    pres = {"p": 2, "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}]}
    path = write_json(tmp_path, "in.json", {"presentation": pres, "verify_to_degree": 10})
    doc = invoke_json(capsys, "steenrod", "--json", path)
    assert doc["violations"] == []
    kinds = {"bockstein", "cartan", "instability", "squaring"}
    assert set(doc["checked"]) == set(doc["skipped"]) == kinds
    assert sum(doc["skipped"].values()) > 0
    assert sum(doc["checked"].values()) > 0


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
    "argv,doc",
    [
        (("hilbert", "--n", "40", "--h", "1", "--betti"), None),
        (("anomaly",), {"check": "hilbert", "spec": {"n": 40, "h": 1, "cusp_dims": {"0": 1}}}),
    ],
)
def test_oversized_cusp_table_is_domain_error_without_allocating(capsys, tmp_path, argv, doc):
    if doc is not None:
        argv = (*argv, "--json", write_json(tmp_path, "in.json", doc))
    with deadline(2, "the cusp table was built before n was checked"):
        code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "INVALID_INPUT" in err and "Traceback" not in err


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
