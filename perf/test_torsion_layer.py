"""Microbenchmarks of the torsion-field (CycElem) layer, outside tier-1's
testpaths.

Run from the root of a checkout (pytest-benchmark 5.2.3):

    PYTHONPATH=src python -m pytest perf/test_torsion_layer.py --benchmark-columns=median,iqr,rounds

The fields are those of the torsion checks at their default primes: q = 4
(`--p 2 --e 2`, the torsion-q4 workload; prime theta^2 + theta + w with w
the F_4 element of index 2) and q = 9 (`--p 3 --e 2`; prime theta^2 + w',
index 4).  The operands of mul and inv are the coefficients of Z and of the
top power in the interpolation polynomial M, which cor56 compares: residues
of full length in Z whose numerators have theta-degree up to 4 (q = 4) and 9
(q = 9).  They are built once per module.  The sweeps start from an empty
field cache on every call, as a check does with the field it builds.  The
coefficients of C_{theta^i}(Z) are kept once per tower for the process, so
test_carlitz_poly is warm after its first round.
"""

import pytest

from carlitz.cyclotomic import (CycField, action_at_lam, carlitz_poly, interpolation_M,
                                node_eval)
from carlitz.fields import enumerate_A, make_field, roots_in_ext

FIELDS = {
    "q4": ((2, 2, 2), (2, 1, 1)),
    "q9": ((3, 2, 2), (4, 0, 1)),
}


def _field(name):
    tower, coeffs = FIELDS[name]
    spec = make_field(*tower)
    prime = spec.poly(list(coeffs))
    return CycField(spec, prime, roots_in_ext(prime, spec)[0])


class Case:
    """A torsion field and two of its elements: the coefficients A of Z and
    B of the top power in M."""

    def __init__(self, name):
        self.cf = cf = _field(name)
        M = interpolation_M(cf)
        self.A, self.B = M[1], M[-1]


@pytest.fixture(scope="module", params=list(FIELDS))
def case(request):
    return Case(request.param)


def test_mul(benchmark, case):
    benchmark(lambda: case.A * case.B)


def test_inv(benchmark, case):
    benchmark(lambda: case.A.inv())


def test_qpow(benchmark, case):
    benchmark(lambda: case.A.qpow())


def test_carlitz_poly(benchmark):
    spec = make_field(2, 2, 2)
    elems = enumerate_A(spec, 3)
    benchmark(lambda: [carlitz_poly(spec, a) for a in elems])


def test_action_at_lam_sweep(benchmark):
    cf = _field("q4")
    residues = enumerate_A(cf.spec, cf.d)

    def sweep():
        cf.cache.clear()
        return [action_at_lam(cf, b) for b in residues]

    benchmark(sweep)


def test_interpolation_M(benchmark):
    cf = _field("q4")

    def build():
        cf.cache.clear()
        return interpolation_M(cf)

    benchmark(build)


def test_lem53_node_sweep(benchmark):
    # lem53's node sample: M at the torsion value of every residue
    cf = _field("q4")
    M = interpolation_M(cf)
    residues = enumerate_A(cf.spec, cf.d)

    def sweep():
        cf.cache.clear()
        return [node_eval(M, action_at_lam(cf, b)) for b in residues]

    benchmark(sweep)
