"""The mutation runner's literal and operator finders and its one-site edit."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCE = "x = -3 + True\ny = 'π' + 7\n"


def test_literals_skip_bools_and_count_characters():
    # columns count characters: 'π' is one character but two UTF-8 bytes
    assert mutants.literals(SOURCE, 1, 2) == [(1, 5, 6, 3), (2, 10, 11, 7)]
    assert mutants.literals(SOURCE, 2, 2) == [(2, 10, 11, 7)]


def test_mutate_raises_one_literal_by_one():
    # under a unary minus the literal moves away from zero
    assert mutants.mutate(SOURCE, 1, 5, 6, 3) == "x = -4 + True\ny = 'π' + 7\n"
    assert mutants.mutate(SOURCE, 2, 10, 11, 7) == "x = -3 + True\ny = 'π' + 8\n"


# one case per operator kind: the source, then each flip as (line, start, end, replacement) and the line it makes
OPERATOR_KINDS = {
    "order": ("ok = 0 < a >= b\n", [((1, 7, 8, "<="), "ok = 0 <= a >= b"),
                                    ((1, 11, 13, ">"), "ok = 0 < a > b")]),
    "equality": ("ok = a == b != c\n", [((1, 7, 9, "!="), "ok = a != b != c"),
                                        ((1, 12, 14, "=="), "ok = a == b == c")]),
    "sum": ("x = (a) + b - -c\n", [((1, 8, 9, "-"), "x = (a) - b - -c"),
                                   ((1, 12, 13, "+"), "x = (a) + b + -c")]),
    "boolean": ("ok = a and b or c\n", [((1, 7, 10, "or"), "ok = a or b or c"),
                                        ((1, 13, 15, "and"), "ok = a and b and c")]),
    "not": ("ok = not a not in b\n", [((1, 5, 8, ""), "ok =  a not in b")]),
}


@pytest.mark.parametrize("source,flips", OPERATOR_KINDS.values(), ids=OPERATOR_KINDS)
def test_operators_flip_each_operator_once(source, flips):
    # `not in`, the unary minus and an operator inside an f-string are not flipped
    assert mutants.operators(source + "s = f'{a < b}'\n", 1, 2) == [flip for flip, _ in flips]
    for flip, line in flips:
        assert mutants.mutate(source, *flip) == line + "\n"
