"""The benchmark workloads at four reference seeds, byte for byte.

Each workload of bench/workloads.py runs its checks through
``verify.run_check`` and renders them with ``cli.emit_tsv`` the way one
benchmark pass does; the TSV must equal bench/reference/<workload>/seed<n>.tsv.
These are the budgets the pinned CLI configs of test_tsv_golden.py do not
reach, such as series-q2's tcap 24 at prec 64.  The test only reads the
reference files; bench/capture_reference.py writes them.
"""

import sys
from pathlib import Path

import pytest

from carlitz.cli import emit_tsv
from carlitz.verify import CheckConfig, run_check

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, check_seed  # noqa: E402

SEEDS = (0, 7, 19, 31)

CASES = [(name, seed) for name, wl in WORKLOADS.items()
         for seed in (SEEDS if wl.seeded else SEEDS[:1])]


@pytest.mark.parametrize("name,seed", CASES)
def test_bench_reference_tsv(name, seed):
    wl = WORKLOADS[name]
    seed = check_seed(wl, seed)
    reports = [run_check(CheckConfig(check=check, seed=seed, **wl.config))
               for check in wl.checks]
    got = emit_tsv(reports, False).encode("utf-8")
    assert got == (BENCH / "reference" / name / f"seed{seed}.tsv").read_bytes()
