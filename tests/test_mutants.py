"""The mutant list stays applicable: ``python -m tests.mutants`` runs it."""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_the_fragment_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.fragment) == 1
    assert mutant.replacement != mutant.fragment


def test_names_are_distinct():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
