"""`verify --all --format tsv` at the pinned CLI configurations, byte for byte.

TSV is the report format that is deterministic by contract, so a refactor
must leave these files unchanged.  The files under tests/golden/ are changed
only by a change that alters check results on purpose, and that change says
so.  The certified coefficient extraction of ROADMAP item 1 is such a change:
it rewrites the lem41-genseries and carlitz-zeta-s0 rows.  Regenerate a file
with

    PYTHONPATH=src python -m carlitz.cli --all --format tsv --p 2 > tests/golden/p2.tsv
"""

from pathlib import Path

import pytest

from carlitz.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# file stem: (flags, exit code); --p 2 exits 1 on the failing carlitz-zeta-s0 rows
GOLDEN = {
    "p3": (["--p", "3"], 0),
    "p2": (["--p", "2"], 1),
    "p2e2": (["--p", "2", "--e", "2"], 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tsv_matches_golden(name, capsys):
    flags, code = GOLDEN[name]
    assert main(["--all", "--format", "tsv", *flags]) == code
    got = capsys.readouterr().out.encode("utf-8")
    assert got == (GOLDEN_DIR / f"{name}.tsv").read_bytes()
