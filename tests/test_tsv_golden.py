"""`verify --all --format tsv` at the pinned CLI configurations, byte for byte.

TSV is the report format that is deterministic by contract, so a refactor
must leave these files unchanged.  The files under tests/golden/ are changed
only by a change that alters check results on purpose, and that change says
so.  The certified coefficient extraction of ROADMAP item 1 is such a change:
it rewrites the lem41-genseries and carlitz-zeta-s0 rows.  A config runs
--all unless its flags name one --check.  Regenerate a file with

    PYTHONPATH=src python -m carlitz.cli --all --format tsv --p 2 > tests/golden/p2.tsv
"""

from pathlib import Path

import pytest

from carlitz.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# file stem: (flags, exit code); --p 2 exits 1 on the failing carlitz-zeta-s0
# rows and --p 5 on the failing thm4-degcoeff rows.  p5 runs the lattice sums
# over four units per orbit, p7-prop51 over six.  p7-lem31 and p7-growth
# run the Carlitz exponential at q = 7 up to its last kept term.
GOLDEN = {
    "p3": (["--p", "3"], 0),
    "p2": (["--p", "2"], 1),
    "p5": (["--p", "5"], 1),
    "p2e2": (["--p", "2", "--e", "2"], 0),
    "p3prime": (["--p", "3", "--prime", "2,2,0,1"], 0),
    "p7-prop51": (["--check", "prop51-ev", "--p", "7"], 0),
    "p7-lem31": (["--check", "lem31-bound", "--p", "7"], 0),
    "p7-growth": (["--check", "growth-remark", "--p", "7"], 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tsv_matches_golden(name, capsys):
    flags, code = GOLDEN[name]
    scope = [] if "--check" in flags else ["--all"]
    assert main([*scope, "--format", "tsv", *flags]) == code
    got = capsys.readouterr().out.encode("utf-8")
    assert got == (GOLDEN_DIR / f"{name}.tsv").read_bytes()
