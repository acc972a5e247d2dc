"""The pinned-run table itself: one case per named run, one re-pin command."""

from __future__ import annotations

import pytest

from tests.pinned import cases, repin, table


def test_the_table_holds_every_case_and_nothing_else():
    assert list(table()) == cases()


@pytest.mark.parametrize("argv", [[], [""], ["  "], ["--update"], ["one", "two"]])
def test_repin_refuses_to_run_without_one_reason(argv, capsys):
    assert repin(argv) == 2
    assert capsys.readouterr().err.startswith("usage: ")
