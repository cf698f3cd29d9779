"""Golden digests of the CLI's help pages.

`qverify --help` and each subcommand's `--help` print argparse's layout of
the parsers that cli._parsers builds. These digests pin those bytes, so a
rewrite of how the parsers are declared must keep every option string,
help text, default and metavar. argparse wraps help to the terminal width
(the COLUMNS variable), which the test fixes at 80. The digests hold on
Python 3.10 to 3.12; Python 3.13's argparse writes an option with a short
and a long flag as `-o, --option ARG`, which moves three of the pages.
"""

import hashlib
import sys

import pytest

from qverify.cli import COMMANDS, main

HELP = {
    "": "8898b2202d2ada5575f1e0298459949768536dd41004bf4da9aaea8523661561",
    "figure": "962112dcdaa1b3367f96ca6debfdb280c5269e08c8932519c91346ceedbc1c90",
    "landscape": "5de76f2e957e22aaa2467cd922609a506fab5ee72d55cc8568df621244e6434a",
    "samplecount": "372220f3c58700b8ffdbcb7d993313123caaaf5ad9a50ceea237a5ca24722ba2",
    "simulate": "8390511017bd7de6c80999cd84e49b89e84e72b719fcbe5384022afbb91f652d",
    "stabilizer": "da375dd205c3831e4bfad602a300f9616507417f2342e1919367966543d30595",
    "strategy": "e2180ab183be359821c330f09ba3859c641ed2896055f6c93090216a1b949434",
}


def test_every_subcommand_has_a_help_digest():
    assert set(HELP) == {""} | set(COMMANDS)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse's help layout moved in 3.13")
@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: c or "qverify")
def test_help_bytes_match_their_digest(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP[command]
