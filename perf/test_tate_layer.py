"""Microbenchmarks of the TateElem layer, outside tier-1's testpaths.

Run from the root of a checkout (pytest-benchmark 5.2.3):

    PYTHONPATH=src python -m pytest perf/test_tate_layer.py --benchmark-columns=median,iqr,rounds

The shapes are those of two benchmark workloads: series-q2 (s = 1, tcap 24,
q = 2 at m = 1 and m = 2, prec 64), where eq1/eq3 form agf_f(z) * (t - theta)
and cor52/lem31 evaluate chi_t, and thm2 in lattice-q3 (s = 2, tcap 8, q = 3,
prec 24, degcap 8), which multiplies psi_family values by embedded chi_t
values and adds the results.  The inputs are built once per module; every
timed call forms a new element from them and keeps no cache of its own.
"""

import random

import pytest

from carlitz.fields import roots_in_ext
from carlitz.functions import agf_f, carlitz_e, chi_t, default_budget, psi_family
from carlitz.laurent import Completion, sample_z
from carlitz.tate import tate_t_minus_theta

SHAPES = {
    "series-q2-m1": dict(tower=(2, 1, 1), s=1, tcap=24, prec=64),
    "series-q2-m2": dict(tower=(2, 1, 2), s=1, tcap=24, prec=64),
    "thm2-q3": dict(tower=(3, 1, 1), s=2, tcap=8, prec=24),
}


class Case:
    """Operands of one shape: A and B of the shape's arity, a scalar, roots."""

    def __init__(self, tower, s, tcap, prec):
        self.ctx = ctx = Completion(*tower)
        self.budget = B = default_budget(ctx, prec)
        self.tcap = tcap
        rng = random.Random(f"tate-layer:{tower}:{s}")
        self.z = z = sample_z(ctx, rng, "small")
        spec = ctx.spec
        if s == 1:
            self.A = agf_f(ctx, z, tcap, B)
            self.B = tate_t_minus_theta(ctx, 1, tcap, 0)
            self.scalar = carlitz_e(ctx, z, B)
        else:
            fam = psi_family(ctx, 2, z, 8, tcap, B, [(1, 1), (1, 0), (0, 1), (0, 0)])
            self.A = fam[0]
            self.B = chi_t(ctx, z, tcap, B).embed_vars(2, (0,))
            self.scalar = z
        # a root of unity of the tower: of theta^2 + theta + 1 when d = 2
        prime = spec.poly([1, 1, 1]) if tower[2] == 2 else spec.poly([1, 1])
        root = roots_in_ext(prime, spec)[0]
        self.roots = (root,) * s


@pytest.fixture(scope="module", params=list(SHAPES))
def case(request):
    return Case(**SHAPES[request.param])


def test_add(benchmark, case):
    benchmark(lambda: case.A + case.B)


def test_sub(benchmark, case):
    benchmark(lambda: case.A - case.B)


def test_mul(benchmark, case):
    benchmark(lambda: case.A * case.B)


def test_scalar_mul(benchmark, case):
    benchmark(lambda: case.A.scalar_mul(case.scalar))


def test_tau(benchmark, case):
    benchmark(lambda: case.A.tau())


def test_ev(benchmark, case):
    benchmark(lambda: case.A.ev(case.roots))


@pytest.mark.parametrize("m", [1, 2])
def test_agf_f(benchmark, m):
    c = Case(**SHAPES[f"series-q2-m{m}"])
    benchmark(lambda: agf_f(c.ctx, c.z, c.tcap, c.budget))


@pytest.mark.parametrize("m", [1, 2])
def test_chi_t(benchmark, m):
    c = Case(**SHAPES[f"series-q2-m{m}"])
    chi_t(c.ctx, c.z, c.tcap, c.budget)  # omega_inv is cached per (tcap, wp), as in a run
    benchmark(lambda: chi_t(c.ctx, c.z, c.tcap, c.budget))
