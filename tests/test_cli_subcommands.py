"""The ``dse-experiments`` subcommand table: every entry resolves and
answers ``--help``."""

import pytest

from repro.experiments.cli import SUBCOMMANDS, main, subcommand


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_resolves_and_helps(name, capsys):
    assert callable(subcommand(name))
    with pytest.raises(SystemExit) as exit_info:
        main([name, "--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out
