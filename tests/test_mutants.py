"""The mutation runner's literal finder and its one-literal edit."""

import importlib.util
from pathlib import Path

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
