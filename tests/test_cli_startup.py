"""What `import modtopo` and one CLI command load, and what the CLI prints.

The package resolves its public names on first access (PEP 562), and
each CLI subcommand imports only the modules it uses.  The subprocess
tests pin that; the golden test pins the stdout of the README examples
and of one command per subcommand, byte for byte, and the pinned test
the output of the other subcommand branches.
"""

import functools
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modtopo
from modtopo.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text(encoding="utf-8"))
# the remaining subcommand branches, with exit code and stderr
PINNED = json.loads((Path(__file__).with_name("cli_pinned.json")).read_text(encoding="utf-8"))

# the public names of the package, by the module that defines them
EXPORTED = {
    "abgroup": """FgAbGroup IntMatrix SnfResult cohomology_of_cochain_complex determinant
        dual_complex homology_of_complex image_lattice_basis integer_kernel_basis is_prime
        lattice_quotient matrix_rank smith_normal_form solve_integer""",
    "anomaly": """CohomologyElement FluxVerdict FreedWittenVerdict HilbertAnomalyReport
        MmsVerdict RationalClass d3_action flux_quantization_check freed_witten_check
        hilbert_anomaly_report mms_instability_check""",
    "errors": """AmbientMismatch DegreeOutOfRange DimensionMismatch DomainError Inhomogeneous
        InvalidDimension LengthMismatch NoUnitSummand NotAComplex NotASublattice NotModTwo
        NotOddPrime ShapeMismatch Undetermined WrongDegree""",
    "graded": """BettiTable CoefficientSpec GradedCohomology betti cohomology_with_coefficients
        euler_characteristic homology_with_coefficients kunneth_product tensor_product_complex""",
    "hilbert": """CompactHilbertSpec CuspidalBetti CuspidalHilbertSpec FiltrationDims HodgeSlice
        betti_total compact_betti compact_implied_volume cuspidal_betti hodge_filtration_dims
        hodge_slice variety_cohomology""",
    "ktheory": """CircleBundleSpec KPair k_groups k_groups_via_d3 product_with_torus reduced_k
        surface_k_groups t_duality_check torus_k_groups total_space_cohomology""",
    "selftest": "hodge_sum_sweep k_path_sweep",
    "steenrod": """AxiomReport AxiomViolation ModPRingPresentation RingElement axiom_report
        bockstein sq st verify_axioms w3_from_w2""",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


def python(*args, stdin="", stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=60,
    )


# runs modtopo.cli as ``python -m`` does, then lists the modules loaded
RUN_CLI = """
import runpy, sys
sys.argv[0] = "modtopo"
try:
    runpy.run_module("modtopo.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(*sorted(sys.modules), file=sys.stderr)
"""


def cli_loads(argv, doc, all_modules=False):
    """The modtopo modules that one CLI command loads; with ``all_modules``,
    every module it loads that a bare ``python -c pass`` does not."""
    proc = python("-c", RUN_CLI, *argv, stdin=json.dumps(doc))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    if all_modules:
        return loaded - bare_interpreter_modules()
    return {m for m in loaded if m.startswith("modtopo")}


@functools.cache
def bare_interpreter_modules():
    proc = python("-c", "import sys; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def test_import_modtopo_loads_no_submodule():
    proc = python("-c", "import sys, modtopo; print(sorted(m for m in sys.modules if 'modtopo' in m))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['modtopo']"]


def test_group_command_loads_abgroup_and_errors_only():
    doc = {"op": "tensor", "a": {"rank": 0, "torsion": [4]}, "b": {"rank": 0, "torsion": [6]}}
    assert cli_loads(["group"], doc) == {"modtopo", "modtopo.abgroup", "modtopo.errors"}


def test_steenrod_evaluation_loads_no_other_calculator():
    doc = {
        "presentation": {"p": 2, "generators": [{"name": "x", "degree": 1}]},
        "evaluate": {"op": "Sq1", "element": [{"coeff": 1, "monomial": {"x": 1}}]},
    }
    loaded = cli_loads(["steenrod"], doc)
    assert "modtopo.steenrod" in loaded
    others = {f"modtopo.{m}" for m in ("hilbert", "anomaly", "graded", "ktheory", "selftest")}
    assert not loaded & others


@pytest.mark.parametrize("case", GOLDEN, ids=[c["label"] for c in GOLDEN])
def test_no_command_loads_dataclasses_or_inspect(case):
    doc = json.loads(case["stdin"]) if case["stdin"] else {}
    loaded = cli_loads(case["argv"], doc, all_modules=True)
    assert "modtopo.abgroup" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "doc",
    [
        {"check": "flux", "g4": ["1/2"], "p1": [2]},
        {"check": "freed_witten", "ambient": {"rank": 0, "torsion": [2]}, "w3": {"torsion": [1]},
         "h": {"torsion": [1]}},
    ],
    ids=["flux", "freed_witten"],
)
def test_anomaly_checks_off_the_hilbert_branch_load_no_hilbert(doc):
    loaded = cli_loads(["anomaly"], doc)
    assert "modtopo.anomaly" in loaded
    assert not loaded & {"modtopo.hilbert", "modtopo.graded"}


def test_hilbert_betti_loads_no_graded_and_no_fractions():
    loaded = cli_loads(["hilbert", "--n", "3", "--h", "2", "--betti"], {}, all_modules=True)
    assert "modtopo.hilbert" in loaded
    assert not loaded & {"modtopo.graded", "fractions"}


def test_every_exported_name_resolves_to_its_module_object():
    assert len(NAMES) == 83
    assert sorted(modtopo.__all__) == sorted(name for _, name in NAMES)
    for module, name in NAMES:
        value = getattr(modtopo, name)
        assert value is getattr(importlib.import_module(f"modtopo.{module}"), name), name
        assert vars(modtopo)[name] is value  # bound once, then a plain attribute
    assert set(dir(modtopo)) >= {name for _, name in NAMES} | set(EXPORTED)
    assert modtopo.steenrod is importlib.import_module("modtopo.steenrod")
    with pytest.raises(AttributeError):
        modtopo.no_such_name


@pytest.mark.parametrize("case", GOLDEN, ids=[c["label"] for c in GOLDEN])
def test_cli_stdout_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code = run(case["argv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == case["stdout"]


@pytest.mark.parametrize("case", PINNED, ids=[c["label"] for c in PINNED])
def test_cli_output_of_every_branch_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code = run(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


@pytest.mark.parametrize(
    "argv",
    [["hilbert", "--n", "12", "--h", "1", "--hodge"], ["self-test", "--max-genus", "0"]],
    ids=["hilbert", "self-test"],
)
def test_a_closed_stdout_is_a_usage_error_without_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # no reader left: the first write fails with EPIPE
    try:
        proc = python("-m", "modtopo.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.stderr.count("usage error") == 1


def evaluation(p, generators, ops, op, power):
    gens = [{"name": name, "degree": d} for name, d in generators]
    element = [{"coeff": 1, "monomial": power}]
    return {"presentation": {"p": p, "generators": gens, "ops": ops}, "evaluate": {"op": op, "element": element}}


# Sq^1 x^1500 at p = 2, and beta v^1200 on the mod-3 cohomology of L^inf(3)
DEEP_EVALUATIONS = {
    "sq": evaluation(2, [("x", 1)], [], "Sq1", {"x": 1500}),
    "beta": evaluation(
        3,
        [("u", 1), ("v", 2)],
        [
            {"op": "beta", "gen": "u", "value": [{"coeff": 1, "monomial": {"v": 1}}]},
            {"op": "beta", "gen": "v", "value": []},
        ],
        "beta",
        {"v": 1200},
    ),
}


@pytest.mark.parametrize("name", DEEP_EVALUATIONS)
def test_an_operation_on_a_high_power_answers_without_a_traceback(name):
    proc = python("-m", "modtopo.cli", "steenrod", stdin=json.dumps(DEEP_EVALUATIONS[name]))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"rendered": "0", "value": []}
