"""Answers with more digits than the interpreter converts to text by default
(4,300) are printed in full, and the limit still guards the input."""

import json
import sys

import pytest

from modtopo.cli import run

NINES = "9" * 4300  # the longest integer the default limit reads


def test_an_answer_over_4300_digits_is_printed_exactly(capsys):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code = run(["hilbert", "--n", "2", "--compact", "--dim-weight2", NINES, "--betti"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    # b_2 = 4 * dim + 2 = 4 * 10^4300 - 2
    assert json.loads(captured.out) == [1, 0, "3" + "9" * 4299 + "8", 0, 1]
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this interpreter reads integers of any length"
)
def test_an_input_over_the_digit_limit_is_still_a_usage_error(capsys):
    code = run(["hilbert", "--n", "2", "--compact", "--dim-weight2", "9" * 4400, "--betti"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--dim-weight2" in captured.err
