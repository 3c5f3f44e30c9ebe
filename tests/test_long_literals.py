"""An integer literal longer than ``int`` reads from a string (4,300 digits by
default) is a parse error at its token, like every other parse error.
"""

import sys
from unittest import mock

import pytest

from simploc import script
from simploc.script import LiteralError, ScriptError, parse


@pytest.mark.parametrize(
    "line, col",
    [
        ("let x = P({})", 11),
        ("let x = Flag(3, d=(1, -{}))", 23),
        ("let x = P(2)\ncompute x table=unit degrees=-{}..0", 30),
    ],
)
def test_a_long_literal_is_an_error_at_its_token(line, col):
    digits = "1" * 4301
    with pytest.raises(LiteralError) as raised:
        parse(f"group trivial\n{line.format(digits)}\n")
    assert isinstance(raised.value, ScriptError) and isinstance(raised.value, ValueError)
    assert (raised.value.line, raised.value.col) == (2 + line.count("\n"), col)
    assert str(raised.value).endswith("integer literal of 4301 digits exceeds the limit of 4300")


def test_the_limit_is_the_interpreters():
    digits = "1" * 5000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit
    try:
        assert parse(f"group trivial\nlet x = P({digits})\n").trees["x"].bundle.rank == int(digits) + 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_another_value_error_is_raised_as_it_is():
    error = ValueError("not a literal's")
    with mock.patch.object(script, "_parse_line", side_effect=error):
        with pytest.raises(ValueError) as raised:
            parse("group trivial\n")
    assert raised.value is error
