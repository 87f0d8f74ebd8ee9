"""Microbenchmarks of the finite-field layer (GFElem and GFPoly), outside
tier-1's testpaths.

Run from the root of a checkout (pytest-benchmark 5.2.3):

    PYTHONPATH=src python -m pytest perf/test_fields_layer.py --benchmark-columns=min,median,rounds

Compare the minima of several runs per side, not single medians: on a shared
host the raw times of one unchanged tree move by about 1.6x between runs, as
the CPU switches between a fast and a slow mode, and the fast-mode minimum is
the figure that repeats.

The shapes are those of the torsion-q4 workload (`--p 2 --e 2`):
- "theta" operands are polynomials in theta over the coefficient extension
  (2, 2, 2), of length 3 and 5, with every coefficient nonzero: the
  numerators of the torsion-field elements.
- "sparse" operands are polynomials of degree 1,024 over (2, 2, 1) with about
  2% of their coefficients nonzero: the telescope numerators of lem55 at
  depth 5.
divmod divides a by a polynomial of the same density and of length 2 and 3
(theta) or 257 (sparse).
The operands are drawn once, from fixed seeds.
"""

import random

import pytest

from carlitz.fields import _FIELD_CACHE, make_field


def _poly(spec, n, density, seed):
    """A polynomial of length n over spec, each coefficient below the top
    nonzero with the given probability, the top one always."""
    rng = random.Random(seed)
    cs = [rng.randrange(1, spec.order) if rng.random() < density else 0 for _ in range(n - 1)]
    return spec.poly([spec.from_index(c) for c in cs + [rng.randrange(1, spec.order)]])


SHAPES = {
    "theta3": ((2, 2, 2), 3, 1.0, 2),
    "theta5": ((2, 2, 2), 5, 1.0, 3),
    "sparse1024": ((2, 2, 1), 1025, 0.02, 257),
}


class Case:
    """Two operands a, b of one shape and a shorter divisor."""

    def __init__(self, name):
        tower, n, density, dlen = SHAPES[name]
        spec = make_field(*tower)
        self.a = _poly(spec, n, density, f"{name}:a")
        self.b = _poly(spec, n, density, f"{name}:b")
        self.div = _poly(spec, dlen, density, f"{name}:div")


@pytest.fixture(scope="module", params=list(SHAPES))
def case(request):
    return Case(request.param)


def test_poly_mul(benchmark, case):
    benchmark(lambda: case.a * case.b)


def test_poly_add(benchmark, case):
    benchmark(lambda: case.a + case.b)


def test_poly_divmod(benchmark, case):
    benchmark(lambda: divmod(case.a, case.div))


def test_poly_qpow(benchmark, case):
    benchmark(lambda: case.a.qpow(1))


@pytest.fixture(scope="module")
def elems():
    spec = make_field(2, 2, 2)
    rng = random.Random("elems")
    return [spec.from_index(rng.randrange(1, spec.order)) for _ in range(64)]


def test_elem_add(benchmark, elems):
    benchmark(lambda: [x + y for x, y in zip(elems, elems[1:])])


def test_elem_mul(benchmark, elems):
    benchmark(lambda: [x * y for x, y in zip(elems, elems[1:])])


def test_elem_inv(benchmark, elems):
    benchmark(lambda: [x.inv() for x in elems])


def test_make_field_cold(benchmark):
    """make_field(2, 2, 2) with an empty tower cache, so that its bases
    (2, 1, 1) and (2, 2, 1) are built too; the cache is restored after each
    call, so that the towers other tests hold stay the cached ones."""

    def cold():
        saved = dict(_FIELD_CACHE)
        _FIELD_CACHE.clear()
        try:
            return make_field(2, 2, 2)
        finally:
            _FIELD_CACHE.clear()
            _FIELD_CACHE.update(saved)

    benchmark(cold)
