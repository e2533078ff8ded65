"""Fuzz the CLI's JSON readers: every document ends in exit 0, 1 or 2.

Documents for ``group``, ``kunneth``, ``anomaly`` and ``steenrod`` are
mostly well shaped, with any field replaced by junk (wrong types, nested
lists and objects, floats, bools, huge ints) or dropped.  Matrix sides and
the ``kcircle`` genus also reach far past the CLI's size limits, which must
refuse them before anything is built.  Whatever else sets a size (ranks,
degrees, exponents, Hilbert n, the prime, the verification degree) only
ever receives small values or non-numbers, so no example allocates much or
runs long.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from modtopo.cli import run
from modtopo.ktheory import MAX_D3_GENUS

HUGE = st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
NON_NUMBER = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.text("uv/-. ", max_size=3)
    | st.sampled_from(["1/2", "0x1", "1e2", "-1"])
)
# for fields that set a size; no value here is big
SIZE_JUNK = NON_NUMBER | st.integers(-2, 4) | st.sampled_from(["3", "-1"])
# a matrix side past the document cap, or within it but with Smith
# transforms past theirs; the other side is 0, so the shape lists no entries
BIG_SIDE = (st.integers(2**12, 2**16) | st.integers(2**16 + 1, 2**40)).flatmap(
    lambda n: st.sampled_from([(n, 0), (0, n)])
)
# junk object keys never name a real field, so no big value lands in one
JUNK = st.recursive(
    NON_NUMBER | st.integers(-50, 50) | HUGE,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("uv", max_size=2), inner, max_size=3),
    max_leaves=6,
)
ENTRY = st.integers(-9, 9) | HUGE | st.sampled_from(["12", "-4"])


def rarely(usual, rare):
    # one_of would favour its boundary branches; a middle value of a wide
    # integer range comes up about as often as any other
    return st.integers(0, 9).flatmap(lambda i: rare if i == 5 else usual)


def field(valid, junk=JUNK):
    """Mostly the valid value, sometimes junk."""
    return rarely(valid, junk)


def obj(**fields):
    """An object with every field, or now and then a random subset of them."""
    return rarely(st.fixed_dictionaries(fields), st.fixed_dictionaries({}, optional=fields))


def items(elem, max_size=3, min_size=0):
    return field(st.lists(elem, min_size=min_size, max_size=max_size))


SIZE = field(st.integers(0, 3), SIZE_JUNK)
GROUP = field(
    obj(
        rank=SIZE,
        torsion=field(st.sampled_from([[], [2], [2, 4], [3, 6, 12]]) | st.lists(ENTRY, max_size=3)),
    )
)


@st.composite
def matrices(draw):
    small = st.tuples(st.integers(0, 3), st.integers(0, 3))
    r, c = draw(st.integers(0, 3).flatmap(lambda i: BIG_SIDE if i == 0 else small))
    entries = st.lists(field(ENTRY), min_size=r * c, max_size=r * c)
    dims = {"rows": field(st.just(r), SIZE_JUNK), "cols": field(st.just(c), SIZE_JUNK)}
    return draw(field(obj(**dims, entries=field(entries))))


def docs(key, *variants):
    """Documents whose ``key`` names one of the variants: (value, fields)."""
    return st.one_of(*(obj(**{key: field(st.just(value))}, **fields) for value, fields in variants))


GROUP_DOCS = docs(
    "op",
    ("smith", {"matrix": matrices()}),
    ("homology", {"boundaries": items(matrices())}),
    *((op, {"a": GROUP, "b": GROUP}) for op in ("direct_sum", "tensor", "tor", "hom", "ext", "is_isomorphic")),
    ("x", {}),
)
GRADED = field(obj(top_degree=SIZE, groups=items(GROUP, min_size=1), label=field(st.just("X"))))
KUNNETH_DOCS = obj(x=GRADED, y=GRADED)
ELEMENT = field(obj(free=items(field(ENTRY)), torsion=items(field(ENTRY))))
SPEC = field(
    obj(
        n=field(st.integers(1, 3), SIZE_JUNK),
        compact=field(st.booleans()),
        dim_weight2=SIZE,
        h=SIZE,
        cusp_dims=field(st.dictionaries(st.sampled_from([str(b) for b in range(8)]), SIZE, max_size=8)),
    )
)
ANOMALY_DOCS = docs(
    "check",
    ("freed_witten", {"ambient": GROUP, "w3": ELEMENT, "h": ELEMENT}),
    ("mms", {"ambient": GROUP, "pd": ELEMENT, "w3": ELEMENT, "h": ELEMENT}),
    ("flux", {"g4": items(field(st.sampled_from(["1/2", "-3", "7/4"]) | ENTRY)), "p1": items(field(ENTRY))}),
    (
        "d3",
        {"source": GROUP, "target": GROUP, "x": ELEMENT, "degree": SIZE, "cup_by_h": matrices(), "sq3": matrices()},
    ),
    ("hilbert", {"spec": SPEC}),
    ("x", {}),
)
NAME = field(st.sampled_from(["x", "y", "z"]), NON_NUMBER)
POLY = items(
    field(
        obj(
            coeff=field(ENTRY),
            monomial=field(st.dictionaries(st.sampled_from(["x", "y", "z"]), SIZE, max_size=3), SIZE_JUNK),
        ),
        SIZE_JUNK,
    ),
    max_size=2,
)
OP_LABEL = field(st.sampled_from(["Sq1", "Sq2", "Sq3", "St1", "beta", "w3_from_w2", "Sq-1", "Sq", "x"]), SIZE_JUNK)
PRESENTATION = field(
    obj(
        p=field(st.sampled_from([2, 3, 5]), SIZE_JUNK),
        generators=items(field(obj(name=NAME, degree=field(st.integers(1, 3), SIZE_JUNK)), SIZE_JUNK)),
        relations=items(POLY, max_size=2),
        ops=items(field(obj(op=OP_LABEL, gen=NAME, value=POLY), SIZE_JUNK), max_size=2),
    ),
    SIZE_JUNK,
)
STEENROD_DOCS = obj(presentation=PRESENTATION, evaluate=field(obj(op=OP_LABEL, element=POLY), SIZE_JUNK)) | obj(
    presentation=PRESENTATION, verify_to_degree=field(st.integers(0, 3), SIZE_JUNK)
)
CASES = st.one_of(
    st.tuples(st.just("group"), GROUP_DOCS),
    st.tuples(st.just("kunneth"), KUNNETH_DOCS),
    st.tuples(st.just("anomaly"), ANOMALY_DOCS),
    st.tuples(st.just("steenrod"), STEENROD_DOCS),
    st.tuples(st.sampled_from(["group", "kunneth", "anomaly", "steenrod"]), JUNK),
)


def invoke(argv, doc=None):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(code, out, err):
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)  # exactly one JSON document
    else:
        assert out == ""


@settings(max_examples=300, deadline=None)
@given(CASES)
def test_cli_json_readers_keep_the_exit_contract(case):
    subcommand, doc = case
    assert_exit_contract(*invoke([subcommand], doc))


# the matrix readers alone, so that shapes past the caps come up often
@settings(max_examples=100, deadline=None)
@given(docs("op", ("smith", {"matrix": matrices()}), ("homology", {"boundaries": items(matrices())})))
def test_matrix_documents_keep_the_exit_contract_at_any_shape(doc):
    assert_exit_contract(*invoke(["group"], doc))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4) | st.integers(MAX_D3_GENUS + 1, 10**30),
    st.integers(-5, 5),
    st.integers(0, 5),
    st.sampled_from(["closed", "d3"]),
)
def test_kcircle_keeps_the_exit_contract_at_any_genus(genus, chern, twist, path):
    argv = ["kcircle", "--genus", str(genus), "--chern", str(chern), "--twist", str(twist), "--path", path]
    code, out, err = invoke(argv)
    assert code == (1 if path == "d3" and genus > MAX_D3_GENUS else 0), err
    assert_exit_contract(code, out, err)
