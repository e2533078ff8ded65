"""Fuzz the CLI's JSON readers: every document ends in exit 0, 1 or 2.

Documents for ``group``, ``kunneth``, ``anomaly`` and ``steenrod`` are
mostly well shaped, with any field replaced by junk (wrong types, nested
lists and objects, floats, bools, huge ints) or dropped.  Whatever sets a
size (matrix dimensions, ranks, degrees, exponents, Hilbert n, the prime,
the verification degree) only ever receives small values or non-numbers,
so no example allocates much or runs long; the CLI has no resource limits
of its own to lean on.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from modtopo.cli import run

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
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
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


def invoke(subcommand, doc):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run([subcommand])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(CASES)
def test_cli_json_readers_keep_the_exit_contract(case):
    code, out, err = invoke(*case)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)  # exactly one JSON document
    else:
        assert out == ""
