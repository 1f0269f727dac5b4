"""The mutant list stays applicable: ``python -m tests.mutants`` runs it."""

from __future__ import annotations

import ast
import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_the_fragment_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.fragment) == 1
    assert mutant.replacement != mutant.fragment


def test_names_are_distinct():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


def _defines(scope: ast.AST, name: str) -> ast.AST | None:
    """The class or function ``name`` defined directly in ``scope``, or None."""
    for node in getattr(scope, "body", ()):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
    return None


@pytest.mark.parametrize("killer", sorted({k for mutant in MUTANTS for k in mutant.killers}))
def test_every_killer_names_a_test_that_exists(killer):
    # a renamed test would otherwise surface only when the mutants are run
    path, *names = re.sub(r"\[.*\]$", "", killer).split("::")
    assert (ROOT / path).is_file(), path
    scope: ast.AST | None = ast.parse((ROOT / path).read_text())
    for name in names:
        scope = _defines(scope, name)
        assert scope is not None, f"{killer}: no {name!r} in {path}"
