"""Tests for the finite field tower and exact polynomial layer."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_irreducible_p

from carlitz.errors import (
    FieldMismatchError,
    NoRootError,
    NotIrreducibleError,
    NotPrimeError,
    PolyZeroDivisionError,
    SizeLimitError,
    ZeroInverseError,
)
from carlitz.fields import (
    ENUM_LIMIT,
    MAX_ORDER,
    MAX_Q,
    GFPoly,
    enumerate_A,
    make_field,
    poly_mul,
    poly_pdivmod,
    poly_trim,
    roots_in_ext,
)

from oracles import (
    frobenius,
    ref_add,
    ref_divmod,
    ref_eval,
    ref_gcd,
    ref_is_irreducible,
    ref_mul,
    ref_qpow,
)


def brute_lex_least_irreducible_over_fp(p, deg):
    # independent re-derivation: trial division over all lower-degree polys
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    all_polys = {}
    for dd in range(1, deg):
        all_polys[dd] = [
            list(t) + [1] for t in itertools.product(range(p), repeat=dd)
        ]
    for tail in itertools.product(range(p), repeat=deg):
        f = list(tail) + [1]
        reducible = False
        for dd in range(1, deg // 2 + 1):
            for g in all_polys.get(dd, []):
                for h in all_polys.get(deg - dd, []):
                    if trim(mul(g, h)) == f:
                        reducible = True
                        break
                if reducible:
                    break
            if reducible:
                break
        if not reducible:
            return tuple(f)
    raise AssertionError("no irreducible found")


def test_canonical_moduli_frozen():
    assert make_field(2, 1, 2).modulus_base == (0, 1)
    assert make_field(2, 1, 2).modulus_ext == (1, 1, 1)
    assert make_field(3, 1, 2).modulus_ext == (1, 0, 1)
    assert make_field(2, 1, 1).modulus_ext == (0, 1)
    assert make_field(2, 2, 1).modulus_base == (1, 1, 1)


def test_canonical_moduli_match_brute_force():
    assert make_field(2, 2, 1).modulus_base == brute_lex_least_irreducible_over_fp(2, 2)
    assert make_field(3, 1, 1).modulus_base == (0, 1)
    assert make_field(2, 1, 3).modulus_ext[-1] == 1
    # degree-2 ext over F_3 rechecked by hand: y^2+1 has no root in F_3
    for c in range(3):
        assert (c * c + 1) % 3 != 0


def test_make_field_guards():
    with pytest.raises(NotPrimeError):
        make_field(4, 1, 1)
    with pytest.raises(SizeLimitError):
        make_field(17, 1, 1)
    with pytest.raises(SizeLimitError):
        make_field(2, 5, 1)
    with pytest.raises(SizeLimitError):
        make_field(2, 1, 13)
    with pytest.raises(SizeLimitError):
        make_field(3, 1, 0)


def test_make_field_cached_identity():
    assert make_field(3, 1, 2) is make_field(3, 1, 2)


@pytest.mark.parametrize("params", [(2, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 1), (2, 2, 2), (5, 1, 2)])
def test_field_axioms_random(params):
    spec = make_field(*params)
    rng = random.Random(1000 + spec.order)
    for _ in range(300):
        a = spec.from_index(rng.randrange(spec.order))
        b = spec.from_index(rng.randrange(spec.order))
        c = spec.from_index(rng.randrange(spec.order))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == spec.zero
        if not a.is_zero():
            assert a * a.inv() == spec.one
            assert (a ** -1) if False else True
        assert a ** spec.order == a


@pytest.mark.parametrize("params", [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_frobenius_fixed_field(params):
    spec = make_field(*params)
    fixed = [x for x in spec.elements() if frobenius(x) == x]
    assert len(fixed) == spec.q
    assert sorted(x.index for x in fixed) == list(range(spec.q))
    # Frobenius is additive and multiplicative
    rng = random.Random(5)
    for _ in range(100):
        a = spec.from_index(rng.randrange(spec.order))
        b = spec.from_index(rng.randrange(spec.order))
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
    # full orbit returns home
    x = spec.from_index(spec.order - 1)
    assert frobenius(x, spec.d) == x


def test_subfield_injection_ring_hom():
    for params in ((3, 1, 2), (2, 2, 2), (2, 1, 3)):
        spec = make_field(*params)
        sub = spec.base
        assert sub is make_field(spec.p, spec.e, 1) and sub.order == spec.q
        for i in range(spec.q):
            for j in range(spec.q):
                a, b = sub.from_index(i), sub.from_index(j)
                assert spec.from_subfield((a + b).index) == spec.from_subfield(i) + spec.from_subfield(j)
                assert spec.from_subfield((a * b).index) == spec.from_subfield(i) * spec.from_subfield(j)


def test_elem_errors():
    spec = make_field(3, 1, 1)
    other = make_field(2, 1, 1)
    with pytest.raises(ZeroInverseError):
        spec.zero.inv()
    with pytest.raises(ZeroInverseError):
        spec.zero ** -2
    with pytest.raises(FieldMismatchError):
        spec.one + other.one


def test_divmod_oracle():
    s = make_field(3, 1, 1)
    q, r = divmod(s.poly([0, 0, 0, 1]), s.poly([1, 0, 1]))
    assert q == s.poly([0, 1])
    assert r == s.poly([0, 2])


@pytest.mark.parametrize("params", [(2, 1, 1), (3, 1, 1), (2, 2, 1)])
def test_poly_divmod_reconstruction(params):
    spec = make_field(*params)
    rng = random.Random(77)
    for _ in range(250):
        da = rng.randrange(0, 7)
        db = rng.randrange(0, 4)
        a = spec.poly([rng.randrange(spec.q) for _ in range(da + 1)])
        b = spec.poly([rng.randrange(spec.q) for _ in range(db + 1)])
        if b.is_zero():
            with pytest.raises(PolyZeroDivisionError):
                divmod(a, b)
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_gcd_properties():
    spec = make_field(3, 1, 1)
    rng = random.Random(11)
    for _ in range(150):
        a = spec.poly([rng.randrange(3) for _ in range(rng.randrange(1, 6))])
        b = spec.poly([rng.randrange(3) for _ in range(rng.randrange(1, 6))])
        g = a.gcd(b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            continue
        assert g.is_monic()
        assert (a % g).is_zero()
        assert (b % g).is_zero()


def test_poly_eval_is_hom():
    spec = make_field(2, 1, 2)
    rng = random.Random(23)
    for _ in range(100):
        a = spec.poly([rng.randrange(2) for _ in range(5)])
        b = spec.poly([rng.randrange(2) for _ in range(5)])
        x = spec.from_index(rng.randrange(spec.order))
        assert (a * b).eval(x) == a.eval(x) * b.eval(x)
        assert (a + b).eval(x) == a.eval(x) + b.eval(x)


def test_irreducibility_vs_roots():
    spec = make_field(3, 1, 1)
    # over F_3: theta^2+1 irreducible, theta^2+2 = (theta+1)(theta+2)
    assert spec.poly([1, 0, 1]).is_irreducible()
    assert not spec.poly([2, 0, 1]).is_irreducible()
    assert not spec.poly([0, 1, 1]).is_irreducible()
    # cross-check against exhaustive factor search up to degree 4
    rng = random.Random(9)
    lows = [spec.poly(list(t) + [1]) for d in (1, 2) for t in itertools.product(range(3), repeat=d)]
    for _ in range(80):
        f = spec.poly([rng.randrange(3) for _ in range(rng.randrange(2, 5))] + [1])
        brute = not any(
            (f % g).is_zero() for g in lows if 0 < g.degree <= f.degree // 2
        )
        if f.degree >= 1:
            assert f.is_irreducible() == brute


def test_roots_in_ext_examples():
    spec = make_field(3, 1, 2)
    roots = roots_in_ext(spec.poly([1, 0, 1]), spec)
    assert [r.index for r in roots] == [3, 6]
    for r in roots:
        assert (r * r + spec.one).is_zero()
    # degree-1 input: single root, in F_q
    r1 = roots_in_ext(spec.poly([2, 1]), spec)
    assert len(r1) == 1 and r1[0] == -spec.from_subfield(2)


def test_roots_in_ext_errors():
    spec = make_field(3, 1, 2)
    with pytest.raises(NotIrreducibleError):
        roots_in_ext(spec.poly([2, 0, 1]), spec)
    with pytest.raises(NotIrreducibleError):
        roots_in_ext(spec.poly([1, 0, 2]), spec)  # not monic
    with pytest.raises(NoRootError):
        roots_in_ext(spec.poly([1, 2, 0, 1]), spec)  # degree 3 does not divide d=2


def test_enumerate_order_frozen():
    f2 = make_field(2, 1, 1)
    f3 = make_field(3, 1, 1)
    assert [repr(a) for a in enumerate_A(f2, 1)] == ["0", "1"]
    assert [repr(a) for a in enumerate_A(f3, 1, monic=True)] == [
        "theta",
        "theta + 1",
        "theta + 2",
    ]
    assert [repr(a) for a in enumerate_A(f2, 2)] == ["0", "1", "theta", "theta + 1"]
    assert len(enumerate_A(f3, 2, monic=True)) == 9
    for a in enumerate_A(f3, 2, monic=True):
        assert a.is_monic() and a.degree == 2
    # ENUM_LIMIT is the only size guard: 3^11 is the first power of 3 above it
    assert 3**10 <= ENUM_LIMIT < 3**11
    with pytest.raises(SizeLimitError):
        enumerate_A(f3, 11)


@pytest.mark.parametrize("j", [1, 2])
def test_differential_qpow_outside_subfield(j):
    # GFPoly.qpow against j rounds of q-fold products, in the tower (2, 2, 2)
    # with coefficients outside F_q, where c^q differs from c
    spec = make_field(2, 2, 2)
    c = spec.from_index(5)
    assert c.index >= spec.q and frobenius(c, 1) != c
    rng = random.Random(f"qpow:{j}")
    rand = spec.poly([spec.from_index(rng.randrange(spec.order)) for _ in range(4)])
    for a in (spec.poly([spec.one, c]), rand, spec.poly([])):
        want = a
        for _ in range(j):
            base, want = want, spec.poly([1])
            for _ in range(spec.q):
                want = want * base
        assert a.qpow(j) == want
        assert a.qpow(0) == a


# -- GFPoly's index kernels against the GFElem-list references

KERNEL_TOWERS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2), (5, 1, 2)]


@st.composite
def kernel_operands(draw, order):
    """Field-index lists, low degree first: zero, a constant, a dense short
    one (length <= 6) or a sparse long one (length up to 1,100, about 2% of
    its coefficients nonzero, as the telescope numerators of lem55)."""
    nonzero = st.integers(1, order - 1)
    kind = draw(st.sampled_from(["zero", "constant", "dense", "sparse"]))
    if kind == "zero":
        return []
    if kind == "constant":
        return [draw(nonzero)]
    if kind == "dense":
        return draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=6))
    n = draw(st.integers(2, 1100))
    cs = [0] * n
    for k, c in draw(st.dictionaries(st.integers(0, n - 2), nonzero, max_size=n // 50 + 1)).items():
        cs[k] = c
    cs[-1] = draw(nonzero)
    return cs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_TOWERS), st.data())
def test_differential_gfpoly_kernels_match_gfelem_references(params, data):
    spec = make_field(*params)
    zero = spec.zero
    a, b = (data.draw(kernel_operands(spec.order)) for _ in range(2))
    ea, eb = [spec.from_index(i) for i in a], [spec.from_index(i) for i in b]
    A, B = GFPoly(spec, ea), GFPoly(spec, eb)
    assert list(A.coeffs) == ref_add(ea, [], zero) and A == spec.poly(ea)
    assert hash(A) == hash(GFPoly(spec, tuple(A.coeffs)))
    c = spec.from_index(data.draw(st.integers(0, spec.order - 1)))
    x = spec.from_index(data.draw(st.integers(0, spec.order - 1)))
    assert list((A + B).coeffs) == ref_add(ea, eb, zero)
    assert list((A - B).coeffs) == ref_add(ea, [-y for y in eb], zero)
    assert list((-A).coeffs) == ref_add([-y for y in ea], [], zero)
    assert list(A.scale(c).coeffs) == ref_add([y * c for y in ea], [], zero)
    assert list((A * B).coeffs) == ref_mul(ea, eb, zero)
    assert A.eval(x) == ref_eval(ea, x)
    for j in (1, 2):
        assert list(A.qpow(j).coeffs) == ref_qpow(ea, j, zero)
    if B.is_zero():
        with pytest.raises(PolyZeroDivisionError):
            divmod(A, B)
    else:
        q, r = divmod(A, B)
        assert (list(q.coeffs), list(r.coeffs)) == ref_divmod(ea, eb, zero)
    if min(len(a), len(b)) <= 6:
        assert list(A.gcd(B).coeffs) == ref_gcd(ea, eb, zero)
    # irreducibility over F_q needs coefficients in F_q
    if len(a) <= 6:
        f = spec.poly([i % spec.q for i in a])
        assert f.is_irreducible() == ref_is_irreducible(list(f.coeffs))


# -- the index/log/Zech core against independent oracles


def accepted_towers(max_order):
    """Every (p, e, d) that make_field accepts with q^d <= max_order."""
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        e = 1
        while p**e <= MAX_Q:
            d = 1
            while p ** (e * d) <= min(max_order, MAX_ORDER):
                out.append((p, e, d))
                d += 1
            e += 1
    return out


def _ints(poly):
    """Coefficients over F_p, high degree first, as sympy's galoistools wants."""
    return [c.index for c in reversed(poly.coeffs)]


fp_polys = st.lists(st.integers(0, 12), max_size=9)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), fp_polys, fp_polys)
def test_fp_poly_divmod_gcd_match_sympy(p, a, b):
    spec = make_field(p, 1, 1)
    A = spec.poly([c % p for c in a])
    B = spec.poly([c % p for c in b])
    assert _ints(A.gcd(B)) == gf_gcd(_ints(A), _ints(B), p, ZZ)
    if B.is_zero():
        return
    q, r = divmod(A, B)
    assert (_ints(q), _ints(r)) == tuple(gf_div(_ints(A), _ints(B), p, ZZ))


coeff_polys = st.lists(st.lists(st.integers(0, 15), max_size=3), max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 1, 2), (3, 1, 1), (2, 2, 1)]), coeff_polys, coeff_polys)
def test_differential_pdivmod_over_polynomials(params, a, b):
    # pseudo-division over F[theta] needs no inverse: s * a = quot * b + rem
    # with deg rem < deg b and s a power of lead(b), at most one per step
    spec = make_field(*params)
    zero, one = spec.poly([]), spec.poly([1])
    A = poly_trim(spec.poly([spec.from_index(x) for x in c]) for c in a)
    B = poly_trim(spec.poly([spec.from_index(x) for x in c]) for c in b)
    if not B:
        return
    s, quot, rem = poly_pdivmod(A, B, zero, one)
    assert len(rem) < len(B)
    powers = [one]
    for _ in range(max(0, len(A) - len(B) + 1)):
        powers.append(powers[-1] * B[-1])
    assert s in powers
    rhs = itertools.zip_longest(poly_mul(quot, B, zero), rem, fillvalue=zero)
    assert [c * s for c in A] == poly_trim(x + y for x, y in rhs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), fp_polys, fp_polys)
def test_differential_pdivmod_matches_divmod_over_fp(p, a, b):
    # over a field the pseudo-quotient and -remainder are s times the true ones
    spec = make_field(p, 1, 1)
    A = spec.poly([c % p for c in a])
    B = spec.poly([c % p for c in b])
    if B.is_zero():
        return
    s, quot, rem = poly_pdivmod(A.coeffs, B.coeffs, spec.zero, spec.one)
    q, r = divmod(A, B)
    assert spec.poly(quot) == q.scale(s) and spec.poly(rem) == r.scale(s)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(0, 12), min_size=1, max_size=8))
def test_fp_irreducibility_matches_sympy(p, tail):
    spec = make_field(p, 1, 1)
    f = spec.poly([c % p for c in tail] + [1])
    assert f.is_irreducible() == gf_irreducible_p(_ints(f), p, ZZ)


@pytest.mark.parametrize("params", accepted_towers(256), ids=lambda t: "-".join(map(str, t)))
def test_zech_arithmetic_matches_coordinates(params):
    spec = make_field(*params)
    p, m, n = spec.p, spec.m, spec.order
    place = p ** np.arange(m)
    C = np.arange(n)[:, None] // place % p  # digits of every index
    T = spec.basis_mul_table.astype(np.int64)
    # C[a] * C[b] through the basis products, for all pairs at once
    prod = np.einsum("aj,bk,jkl->abl", C, C, T, optimize=True) % p @ place
    add = (C[:, None, :] + C[None, :, :]) % p @ place
    elems = [spec.from_index(i) for i in range(n)]
    assert [x.coords for x in elems] == [tuple(r) for r in C.tolist()]
    assert np.array_equal(np.array([[(x * y).index for y in elems] for x in elems]), prod)
    assert np.array_equal(np.array([[(x + y).index for y in elems] for x in elems]), add)
    assert [(-x).index for x in elems] == ((-C) % p @ place).tolist()
    for x in elems[1:]:
        assert prod[x.index, x.inv().index] == 1


# sha256 of the tower tables of every accepted tower of order <= 1024, in
# accepted_towers order, taken from the tuple-coordinate implementation that
# the index/log/Zech core replaced
FROZEN_TOWER_DIGEST = "6249b23f9787447996c188c459fcdb8b13ff2c8366939cec1e513f92755d262a"


def test_tower_tables_frozen():
    h = hashlib.sha256()
    for p, e, d in accepted_towers(1024):
        s = make_field(p, e, d)
        rec = [p, e, d, [int(c) for c in s.modulus_base], [int(c) for c in s.modulus_ext],
               [int(c) for c in s.generator_coords], s.basis_mul_table.astype(int).tolist(),
               s.frob_matrix.astype(int).tolist()]
        h.update(json.dumps(rec).encode())
    assert h.hexdigest() == FROZEN_TOWER_DIGEST
