"""Microbenchmarks of the RamLaurent layer, of the Carlitz exponential's
terms and of the stacked ram_solve, outside tier-1's testpaths.

Run from the root of a checkout (pytest-benchmark 5.2.3):

    PYTHONPATH=src python -m pytest perf/test_laurent_layer.py --benchmark-columns=min,median,rounds

Compare the minima of alternating runs per side, not single medians: perf/
has no CPU-speed correction (bench/run.py has one, bench/speed.py), and on a
shared host the raw times of one unchanged tree move by about 1.6x between
runs as the CPU switches between a fast and a slow mode; the fast-mode
minimum is the figure that repeats.

Shapes:
- "series-q2-m1" and "series-q2-m2": the series-q2 workload's towers (2, 1, 1)
  and (2, 1, 2) at prec 64 (working precision 80), with operands of 80 rows;
  its products are that long (about 11,000 row pairs times m^2 each).
- "lattice-q3": the lattice-q3 workload's tower (3, 1, 1) at prec 24
  (working precision 46), with operands of 46 rows, the length of its
  pivot inverses.
mul multiplies two inexact operands, inv inverts one to its length, qpow
raises one to the q-th power.  ram_solve solves lem41's two lattice-q3
systems, captured from one run of the check at the workload's budget and
seed 0: n = 7 with the 5 Tate keys of s = 1, and n = 8 with the 25 keys of
s = 2.  Operands are drawn once, from fixed seeds.

carlitz_exp and agf_f run at the series-q2 shapes, towers (2, 1, 1) and
(2, 1, 2) at prec 64 and tcap 24, and at q = 7 (tower (7, 1, 1), prec 40,
tcap 12, the CLI defaults), on a small and a large z from sample_z: each
call forms every kept term z^(q^i)/D_i.  pi_tilde, which agf_f multiplies z
by, is cached per completion and warm after the first round.
"""

import random

import pytest

from carlitz import verify
from carlitz.functions import agf_f, carlitz_exp, default_budget, ram_solve
from carlitz.laurent import Completion, sample_z

SHAPES = {
    "series-q2-m1": ((2, 1, 1), 80),
    "series-q2-m2": ((2, 1, 2), 80),
    "lattice-q3": ((3, 1, 1), 46),
}


def _series(ctx, rng, off, length):
    spec = ctx.spec
    terms = [(off, spec.from_index(rng.randrange(1, spec.order)))]
    terms += [(off + k, spec.from_index(rng.randrange(spec.order))) for k in range(1, length)]
    return ctx.from_terms(terms, off + length)


@pytest.fixture(scope="module", params=list(SHAPES))
def case(request):
    tower, length = SHAPES[request.param]
    ctx = Completion(*tower)
    rng = random.Random(f"laurent-layer:{request.param}")
    return length, _series(ctx, rng, -3, length), _series(ctx, rng, 2, length)


def test_mul(benchmark, case):
    _, a, b = case
    benchmark(lambda: a * b)


def test_inv(benchmark, case):
    length, a, _ = case
    benchmark(lambda: a.inv(length))


def test_qpow(benchmark, case):
    _, a, _ = case
    benchmark(lambda: a.qpow(1))


@pytest.fixture(scope="module")
def lem41_systems():
    """{(n, keys): (rows, rhs, wp)} of one lem41-genseries run at lattice-q3's budget."""
    seen = {}

    def spy(rows, rhs, wp):
        seen[(len(rows), len(rhs))] = (rows, rhs, wp)
        return ram_solve(rows, rhs, wp)

    mp = pytest.MonkeyPatch()
    mp.setattr(verify, "ram_solve", spy)
    try:
        verify.run_check(verify.CheckConfig(check="lem41-genseries", p=3, prec=24, tcap=8,
                                            degcap=8, samples=2, seed=0))
    finally:
        mp.undo()
    return seen


@pytest.mark.parametrize("n,keys", [(7, 5), (8, 25)])
def test_ram_solve(benchmark, lem41_systems, n, keys):
    rows, rhs, wp = lem41_systems[(n, keys)]
    benchmark(lambda: ram_solve(rows, rhs, wp))


EXP_SHAPES = {
    "series-q2-m1": ((2, 1, 1), 64, 24),
    "series-q2-m2": ((2, 1, 2), 64, 24),
    "q7": ((7, 1, 1), 40, 12),
}


@pytest.fixture(scope="module", params=[(shape, regime) for shape in EXP_SHAPES
                                        for regime in ("small", "large")],
                ids=lambda param: "-".join(param))
def exp_case(request):
    shape, regime = request.param
    tower, prec, tcap = EXP_SHAPES[shape]
    ctx = Completion(*tower)
    z = sample_z(ctx, random.Random(f"exp-layer:{shape}:{regime}"), regime)
    return ctx, z, prec, tcap


def test_carlitz_exp(benchmark, exp_case):
    ctx, z, prec, _ = exp_case
    benchmark(lambda: carlitz_exp(ctx, z, default_budget(ctx, prec)))


def test_agf_f(benchmark, exp_case):
    ctx, z, prec, tcap = exp_case
    benchmark(lambda: agf_f(ctx, z, tcap, default_budget(ctx, prec)))
