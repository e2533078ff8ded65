"""Every JSON record takes exactly its listed keys.

The stdin documents of the golden and pinned CLI cases are mutated one
record node at a time: a key no record takes is inserted, or a key the
record needs is deleted.  Either is a usage error (exit 2) that names the
key.  Map-valued nodes, a monomial's generator exponents and a Hilbert
spec's ``cusp_dims`` table, are not records and keep their own key rules.
Every value type with both ``to_json`` and ``from_json`` reads back what
it writes.
"""

import copy
import importlib
import inspect
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from modtopo.abgroup import FgAbGroup, IntMatrix, json_record
from modtopo.cli import run

HERE = Path(__file__).parent
CASES = [
    case
    for name in ("cli_golden.json", "cli_pinned.json")
    for case in json.loads((HERE / name).read_text(encoding="utf-8"))
    if case["stdin"]
]
MAPS = {"monomial", "cusp_dims"}  # keys whose object value is a map, not a record
# keys a record may leave out; every other key is needed
OPTIONAL = {"torsion", "free", "label", "compact", "dim_weight2", "relations", "ops", "monomial", "cup_by_h", "sq3"}
UNKNOWN = "zz_not_a_key"


def invoke(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def records(node, path=()):
    """The paths of the record nodes under ``node``, itself included."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            if key not in MAPS:
                yield from records(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from records(value, (*path, i))


def mutations(change):
    """(case label, path, key, mutated stdin) for each record node of each case."""
    for case in CASES:
        doc = json.loads(case["stdin"])
        for path in records(doc):
            for key, mutated in change(doc, path):
                yield pytest.param(case["argv"], path, key, json.dumps(mutated), id=f"{case['label']}:{path}:{key}")


def at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def inserted(doc, path):
    mutated = copy.deepcopy(doc)
    at(mutated, path)[UNKNOWN] = 1
    yield UNKNOWN, mutated


def deleted(doc, path):
    for key in at(doc, path):
        if key not in OPTIONAL:
            mutated = copy.deepcopy(doc)
            del at(mutated, path)[key]
            yield key, mutated


def test_the_cases_cover_every_stdin_document():
    assert len(CASES) == 23
    # 87 objects, of which 4 are monomial or cusp_dims maps
    assert sum(1 for case in CASES for _ in records(json.loads(case["stdin"]))) == 83


@pytest.mark.parametrize("argv, path, key, stdin", mutations(inserted))
def test_a_key_no_record_takes_is_a_usage_error_that_names_it(argv, path, key, stdin):
    code, out, err = invoke(argv, stdin)
    assert (code, out) == (2, ""), err
    assert f"has no key {key!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, path, key, stdin", mutations(deleted))
def test_a_missing_key_is_a_usage_error_that_names_it(argv, path, key, stdin):
    code, out, err = invoke(argv, stdin)
    assert (code, out) == (2, ""), err
    assert repr(key) in err and "KeyError" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["group"], {"op": "tensor", "a": {"rank": 1, "torsoin": [4]}, "b": {"rank": 1}}, "has no key 'torsoin'"),
        (
            ["anomaly"],
            {"check": "hilbert", "spec": {"n": 2, "compact": True, "h": 3, "cusp_dims": {"0": 9}}},
            "a Hilbert spec with 'h' is not compact",
        ),
        (
            ["anomaly"],
            {"check": "hilbert", "spec": {"n": 1, "h": 1, "dim_weight2": 7, "cusp_dims": {"0": 1, "1": 1}}},
            "has no key 'dim_weight2'",
        ),
        (
            ["anomaly"],
            {"check": "hilbert", "spec": {"n": 1, "compact": False, "cusp_dims": {"0": 1, "1": 1}}},
            "a Hilbert spec with no 'h' has no key 'cusp_dims'",
        ),
        (
            ["steenrod"],
            {
                "presentation": {
                    "p": 2,
                    "generators": [{"name": "x", "degree": 1}],
                    "relatoins": [[{"coeff": 1, "monomial": {"x": 2}}]],
                },
                "evaluate": {"op": "Sq1", "element": [{"coeff": 1, "monomial": {"x": 1}}]},
            },
            "has no key 'relatoins'",
        ),
    ],
)
def test_a_misspelled_or_contradicting_key_is_refused_not_ignored(argv, doc, message):
    code, out, err = invoke(argv, json.dumps(doc))
    assert (code, out) == (2, "")
    assert message in err


def test_the_record_reader_names_the_keys_it_takes():
    read = {"rank": int, "torsion": (list, [])}
    assert json_record({"rank": 3}, "a group", **read) == [3, []]
    with pytest.raises(ValueError, match=r"^a group has no key 'torsoin'; it takes rank, torsion$"):
        json_record({"rank": 1, "torsoin": [4]}, "a group", **read)
    with pytest.raises(ValueError, match=r"^a group needs the key 'rank'; it takes rank, torsion$"):
        json_record({"torsion": [4]}, "a group", **read)
    assert json_record({"label": [1]}, "a value", label=None) == [[1]]  # None keeps the value as given


def test_an_unknown_generator_in_a_monomial_is_a_usage_error():
    doc = {
        "presentation": {"p": 2, "generators": [{"name": "x", "degree": 1}]},
        "evaluate": {"op": "Sq1", "element": [{"coeff": 1, "monomial": {"z": 1}}]},
    }
    code, out, err = invoke(["steenrod"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert "unknown generator 'z'" in err and "KeyError" not in err


def _samples():
    from modtopo.anomaly import CohomologyElement
    from modtopo.graded import GradedCohomology
    from modtopo.ktheory import KPair
    from modtopo.steenrod import ModPRingPresentation

    g = FgAbGroup(2, (2, 2**60))
    pres = ModPRingPresentation(
        3,
        [("u", 1), ("v", 2)],
        [[(1, {"v": 2})]],
        operations={("beta", "u"): [(1, {"v": 1})], ("St", 1, "v"): 0},
    )
    return {
        IntMatrix: (IntMatrix(2, 3, (1, -2, 0, 2**70, 5, -1)), IntMatrix.from_json),
        FgAbGroup: (g, FgAbGroup.from_json),
        GradedCohomology: (GradedCohomology((FgAbGroup.free(1), g), "X"), GradedCohomology.from_json),
        KPair: (KPair(g, FgAbGroup.cyclic(3)), KPair.from_json),
        CohomologyElement: (CohomologyElement(g, (1, -4), (1, 7)), lambda doc: CohomologyElement.from_json(g, doc)),
        ModPRingPresentation: (pres, ModPRingPresentation.from_json),
    }


def test_every_value_type_reads_back_what_it_writes():
    samples = _samples()
    for name in ("abgroup", "anomaly", "graded", "hilbert", "ktheory", "steenrod"):
        module = importlib.import_module(f"modtopo.{name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                if hasattr(cls, "to_json") and hasattr(cls, "from_json"):
                    assert cls in samples, f"{cls.__name__} has no round-trip sample"
    for cls, (value, read) in samples.items():
        doc = json.loads(json.dumps(value.to_json()))
        back = read(doc)
        if cls.__name__ == "ModPRingPresentation":  # compared by what it writes
            assert back.to_json() == value.to_json()
        else:
            assert back == value


def test_both_hilbert_specs_read_back_through_spec_from_json():
    from modtopo.hilbert import CompactHilbertSpec, CuspidalHilbertSpec, spec_from_json

    for spec in (
        CompactHilbertSpec(3, 2),
        CuspidalHilbertSpec(2, 3, {0: 1, 1: 2, 2: 0, 3: 4}),
        CuspidalHilbertSpec(2, 1, 5),
    ):
        doc = json.loads(json.dumps(spec.to_json()))
        back = spec_from_json(doc)
        assert back.to_json() == spec.to_json()
