"""Tests for ramified Laurent arithmetic, precision rules, and sampling."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlitz.errors import (
    ConfigError,
    EmptyPrecisionError,
    FieldMismatchError,
    ZeroInverseError,
)
from carlitz.laurent import (
    PREC_EXACT,
    Completion,
    RamLaurent,
    batch_mul,
    left_map,
    mul_prec,
    mul_precs,
    pair_mul,
    sample_z,
    stack_inv,
)

from oracles import frobenius, im_norm_exp, im_part, to_pairs


def ctx_q3():
    return Completion(3, 1, 1)


def rand_exact(ctx, rng, lo=-6, hi=8, density=0.6):
    terms = []
    for k in range(lo, hi):
        if rng.random() < density:
            terms.append((k, ctx.spec.from_index(rng.randrange(ctx.spec.order))))
    return ctx.from_terms(terms)


def test_embed_theta_frozen():
    ctx = ctx_q3()
    th = ctx.theta()
    pairs = to_pairs(th)
    assert len(pairs) == 1
    k, c = pairs[0]
    assert k == -2
    assert c.index == 2
    # theta * theta^-1 == 1
    assert (th * th.inv(1)) == ctx.one()
    # embedding of a polynomial: theta^2 + 1 -> u^-4 + 1
    p = ctx.spec.poly([1, 0, 1])
    s = ctx.embed_poly(p)
    assert to_pairs(s) == [(-4, ctx.spec.one), (0, ctx.spec.one)]


def test_embed_sign_alternates():
    ctx = Completion(2, 1, 1)
    # q=2: theta = u^-1 exactly (minus is plus)
    assert to_pairs(ctx.theta()) == [(-1, ctx.spec.one)]
    ctx3 = ctx_q3()
    th3 = ctx3.embed_poly(ctx3.spec.poly([0, 0, 0, 1]))  # theta^3
    assert to_pairs(th3) == [(-6, -ctx3.spec.one)]


def test_lambda_relation():
    # lambda^(q-1) = -theta in every tower
    for params in ((2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2)):
        ctx = Completion(*params)
        assert ctx.lam() ** ctx.ram == -ctx.theta()


def test_norm_exponents():
    ctx = ctx_q3()
    assert ctx.theta().norm_exp() == 1
    assert ctx.lam().norm_exp() == Fraction(1, 2)
    assert ctx.one().norm_exp() == 0
    assert ctx.zero().norm_exp() == float("-inf")
    assert ctx.zero(prec=10).norm_exp() == Fraction(-10, 2)


def test_geometric_series_inverse():
    ctx = ctx_q3()
    one = ctx.one()
    x = one - ctx.u_pow(1)
    g = x.inv(rel_prec=12)
    # 1/(1-u) = 1 + u + u^2 + ...
    for k in range(12):
        assert g.coeff_at(k) == ctx.spec.one
    assert g.prec == 12
    res = x * g - one
    assert res.is_zero()
    assert res.prec >= 12


@pytest.mark.parametrize("params", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2)])
def test_ring_laws_exact(params):
    ctx = Completion(*params)
    rng = random.Random(400 + ctx.q * ctx.d)
    for _ in range(120):
        a = rand_exact(ctx, rng)
        b = rand_exact(ctx, rng)
        c = rand_exact(ctx, rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a - a == ctx.zero()
        assert a + ctx.zero() == a


def test_inverse_random():
    ctx = Completion(3, 1, 2)
    rng = random.Random(9)
    for _ in range(40):
        a = rand_exact(ctx, rng, density=0.8)
        if a.is_zero():
            continue
        b = a.inv(24)
        res = a * b - ctx.one()
        assert res.is_zero()
        # relative precision of the certificate
        assert res.prec >= 24


def test_inverse_precision_rule():
    ctx = ctx_q3()
    a = ctx.from_terms([(-3, ctx.spec.one), (0, ctx.spec.from_subfield(2))], prec=10)
    b = a.inv(40)  # the input's precision, not the cap, sets the length
    assert b.offset == 3
    assert b.prec == 10 - 2 * (-3)
    assert (a * b - ctx.one()).is_zero()


def test_mul_precision_rule():
    ctx = ctx_q3()
    a = ctx.from_terms([(2, ctx.spec.one)], prec=7)
    b = ctx.from_terms([(-1, ctx.spec.one)], prec=5)
    c = a * b
    assert c.prec == min(7 + (-1), 5 + 2)
    assert c.offset == 1
    z = ctx.zero(prec=4) * b
    assert z.is_zero() and z.prec == 4 + (-1)


def test_add_cancellation_yields_term_free():
    ctx = ctx_q3()
    a = ctx.from_terms([(0, ctx.spec.one)], prec=9)
    b = -a
    s = a + b
    assert s.is_zero() and not s.is_exact()
    assert s.prec == 9


def test_zero_errors():
    ctx = ctx_q3()
    with pytest.raises(ZeroInverseError):
        ctx.zero().inv(8)
    with pytest.raises(EmptyPrecisionError):
        ctx.zero(prec=5).inv(8)
    with pytest.raises(EmptyPrecisionError):
        ctx.from_terms([(0, ctx.spec.one)], prec=4).coeff_at(6)
    with pytest.raises(FieldMismatchError):
        ctx.one() + Completion(2, 1, 1).one()
    with pytest.raises(ConfigError):
        ctx.theta() ** -1  # an inverse needs its precision: inv(rel_prec)


def test_qpow_matches_repeated_product():
    for params in ((2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2)):
        ctx = Completion(*params)
        rng = random.Random(31 * ctx.q + ctx.d)
        for _ in range(40):
            a = rand_exact(ctx, rng, lo=-4, hi=5)
            fast = a.qpow()
            slow = a**ctx.q
            assert fast == slow  # exact inputs: both exact, must agree fully
            assert a.qpow(2) == (a**ctx.q) ** ctx.q


def test_qpow_precision_scaling():
    ctx = ctx_q3()
    a = ctx.from_terms([(1, ctx.spec.one), (2, ctx.spec.from_subfield(2))], prec=6)
    f = a.qpow()
    assert f.prec == 18
    assert f.offset == 3
    # Frobenius acts on coefficients
    ctx4 = Completion(2, 2, 1)
    c = ctx4.spec.from_index(2)
    a4 = ctx4.from_field(c, 1)
    assert to_pairs(a4.qpow()) == [(4, frobenius(c))]


def test_pow_and_shift_and_scale():
    ctx = ctx_q3()
    rng = random.Random(6)
    a = rand_exact(ctx, rng)
    assert a ** 3 == a * a * a
    assert a ** 0 == ctx.one()
    assert RamLaurent(ctx, a.offset + 5, a.coeffs) == a * ctx.u_pow(5)
    c = ctx.spec.from_subfield(2)
    assert a.scale(c) == a * ctx.from_field(c)
    assert a.scale(ctx.spec.zero).is_exact_zero()


def test_truncate_and_window():
    ctx = ctx_q3()
    a = ctx.from_terms([(k, ctx.spec.one) for k in range(-2, 6)])
    t = a.truncate(3)
    assert t.prec == 3
    assert t.end() <= 3
    w = a.truncate(a.valuation() + 4)
    assert w.offset == -2
    assert w.prec == 2
    # truncating below the valuation leaves a term-free bound, not an error
    z = a.truncate(-5)
    assert z.is_zero() and z.prec == -5


def test_embed_rat():
    # the rational function 1/theta embeds as the inverse of the embedded theta
    ctx = ctx_q3()
    s = ctx.embed_poly(ctx.spec.poly([0, 1])).inv(10)
    # 1/theta = -u^2 exactly; higher terms must vanish
    assert s.coeff_at(2) == -ctx.spec.one
    assert s.valuation() == 2
    for k in range(3, 10):
        assert s.coeff_at(min(k, s.prec - 1)).is_zero() or k >= s.prec
    recon = s * ctx.theta() - ctx.one()
    assert recon.is_zero()


def test_im_part_examples():
    ctx = ctx_q3()
    z = ctx.theta() + ctx.u_pow(1)
    im = im_part(z)
    assert to_pairs(im) == [(1, ctx.spec.one)]
    assert im_norm_exp(ctx.lam()) == Fraction(1, 2)
    assert im_norm_exp(ctx.theta()) == float("-inf")
    # d=2: tower coordinate outside F_q is imaginary even on the q-1 grid
    ctx2 = Completion(3, 1, 2)
    zeta = ctx2.spec.from_index(3)
    z2 = ctx2.from_field(zeta, -2)
    assert im_norm_exp(z2) == 1
    base = ctx2.from_field(1, -2)
    assert im_norm_exp(base) == float("-inf")


def test_im_part_q2():
    ctx = Completion(2, 1, 2)
    # x-block is the base completion at every exponent when q = 2
    z = ctx.from_terms([(-1, ctx.spec.one), (0, ctx.spec.from_index(2))])
    im = im_part(z)
    assert to_pairs(im) == [(0, ctx.spec.from_index(2))]


@pytest.mark.parametrize("regime,check", [
    ("small", lambda n: n < 0),
    ("unit", lambda n: n == 0),
    ("large", lambda n: n > 0),
])
def test_sampler_regimes(regime, check):
    for params in ((2, 1, 1), (3, 1, 1), (2, 2, 1)):
        ctx = Completion(*params)
        rng = random.Random(123)
        for _ in range(30):
            z = sample_z(ctx, rng, regime)
            assert check(z.norm_exp())
            assert z.is_exact()
            # guard term: strictly positive top exponent
            assert z.end() - 1 >= 1
            assert not z.coeff_at(z.end() - 1).is_zero()


def test_sampler_imag_large():
    for params in ((3, 1, 1), (2, 1, 2), (3, 1, 2)):
        ctx = Completion(*params)
        rng = random.Random(77)
        for _ in range(25):
            z = sample_z(ctx, rng, "imag_large")
            assert im_norm_exp(z) >= 1
    with pytest.raises(ConfigError):
        sample_z(Completion(2, 1, 1), random.Random(1), "imag_large")
    with pytest.raises(ConfigError):
        sample_z(ctx_q3(), random.Random(1), "no-such-regime")


def test_sampler_deterministic():
    ctx = ctx_q3()
    a = sample_z(ctx, random.Random(42), "large")
    b = sample_z(ctx, random.Random(42), "large")
    assert a == b


def test_sampler_avoids_A_distance():
    # |z - a| > 0 for every a of small degree: brute check against A(3)
    from carlitz.fields import enumerate_A

    ctx = ctx_q3()
    rng = random.Random(5)
    lattice = [ctx.embed_poly(a) for a in enumerate_A(ctx.spec, 3)]
    for regime in ("small", "unit", "large"):
        for _ in range(10):
            z = sample_z(ctx, rng, regime)
            for la in lattice:
                assert not (z - la).is_zero()


# -- the stacked product and the one Newton iteration against the loops they
# replaced


def _batch_mul_reference(ctx, A, B, n):
    """batch_mul as a shift-and-accumulate loop over A's coefficients."""
    N, La, m = A.shape
    T = ctx.spec.basis_mul_table.astype(np.int64)
    out = np.zeros((N, n, m), dtype=np.int64)
    Bn = B[:, :n].astype(np.int64)
    for a in range(m):
        Ba = Bn @ T[a] if m > 1 else Bn
        for s in range(min(La, n)):
            w = min(Ba.shape[1], n - s)
            out[:, s : s + w] += A[:, s, a, None, None] * Ba[:, :w]
    return out % ctx.p


def _raw_mul(ctx, A, B):
    """Coefficient block of one series product without offsets, reduced mod
    p: the pair kernel plus the reduction, as RamLaurent.__mul__ once called
    it."""
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, ctx.spec.m), dtype=np.int8)
    return (pair_mul(ctx, left_map(ctx, A), B.astype(np.int64)) % ctx.p).astype(np.int8)


def _inv_reference(x, rel_prec):
    """RamLaurent.inv as its own Newton loop over single-series products."""
    if x.is_exact_zero():
        raise ZeroInverseError("inverse of exact zero series")
    if x.is_zero():
        raise EmptyPrecisionError("inverse of a term-free series: no leading term")
    ctx = x.ctx
    v = x.offset
    if x.is_exact() and x.coeffs.shape[0] == 1:
        return ctx.from_field(x.coeff_at(v).inv(), -v)
    n = max(int(rel_prec if x.is_exact() else min(x.prec - v, rel_prec)), 1)
    U = x.coeffs[:n]
    B = np.array([x.coeff_at(v).inv().coords], dtype=np.int8)
    one_row = np.array(ctx.spec.one.coords, dtype=np.int64)
    t = 1
    while t < n:
        t2 = min(2 * t, n)
        err = (-_raw_mul(ctx, U[:t2], B)[:t2].astype(np.int64)) % ctx.p
        err[0] = (err[0] + one_row) % ctx.p
        corr = _raw_mul(ctx, B, err.astype(np.int8))[:t2].astype(np.int64)
        newB = np.zeros((t2, ctx.spec.m), dtype=np.int64)
        newB[: B.shape[0]] += B
        newB[: corr.shape[0]] += corr
        B = (newB % ctx.p).astype(np.int8)
        t = t2
    prec = -v + n if x.is_exact() else min(x.prec - 2 * v, -v + n)
    return RamLaurent(ctx, -v, B, prec)


SERIES_TOWERS = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 1, 2), (5, 1, 1)]


@pytest.mark.parametrize("p,e,d", SERIES_TOWERS)
def test_differential_batch_mul(p, e, d):
    ctx = Completion(p, e, d)
    m = ctx.spec.m
    rng = np.random.default_rng(p * 100 + e * 10 + d)
    edges = (1, 2, 17, 40)
    shapes = {(La, Lb) for La in range(1, 41) for Lb in edges}
    shapes |= {(La, Lb) for La in edges for Lb in range(1, 41)}
    for N in (1, 3, 17):
        A0 = rng.integers(0, p, (N, 40, m))
        B0 = rng.integers(0, p, (N, 40, m))
        for La, Lb in sorted(shapes):
            A, B = A0[:, :La], B0[:, :Lb]
            # n below La, at the full product length and above it
            for n in {max(La - 1, 1), La + Lb - 1, La + Lb + 3}:
                got = batch_mul(ctx, A, B, n)
                assert got.shape == (N, n, m)
                want = _batch_mul_reference(ctx, A, B, n)
                assert (got == want).all(), (N, La, Lb, n)
                # a start row keeps only coefficients start .. n-1
                for start in {1, La, n // 2, n - 1} & set(range(1, n)):
                    got = batch_mul(ctx, A, B, n, start)
                    assert (got == want[:, start:]).all(), (N, La, Lb, n, start)


@pytest.mark.parametrize("p,e,d", [t for t in SERIES_TOWERS if t[1] * t[2] > 1])
def test_differential_batch_mul_unused_coordinates(p, e, d):
    """Coordinate columns that are zero in every pair, in one factor, the
    other or both (coefficients in a subfield, or no coefficient at all),
    drop out of batch_mul and leave the product as the reference loop gives
    it, the products' unreached columns zero."""
    ctx = Completion(p, e, d)
    m = ctx.spec.m
    rng = np.random.default_rng(p * 1000 + e * 10 + d)
    masks = [np.arange(m) < 1, np.arange(m) < m - 1, np.arange(m) == m - 1, np.zeros(m, bool),
             np.ones(m, bool)]
    for N in (1, 5):
        for ma in masks:
            for mb in masks:
                A = rng.integers(0, p, (N, 13, m)) * ma
                B = rng.integers(0, p, (N, 9, m)) * mb
                for n in (4, 21, 25):
                    want = _batch_mul_reference(ctx, A, B, n)
                    assert (batch_mul(ctx, A, B, n) == want).all(), (N, ma, mb, n)
                    assert (batch_mul(ctx, A, B, n, 3) == want[:, 3:]).all(), (N, ma, mb, n)


def _inv_inputs(ctx, rng):
    """Exact, inexact and single-term series of assorted lengths and valuations."""
    out = []
    for _ in range(12):
        x = rand_exact(ctx, rng, lo=rng.randrange(-6, 4), hi=rng.randrange(5, 30))
        if x.is_zero():
            continue
        out.append(x)
        out.append(x.truncate(x.valuation() + rng.randrange(1, 25)))
    out.append(ctx.from_field(ctx.spec.from_index(ctx.spec.order - 1), 3))
    out.append(ctx.from_field(ctx.spec.one, -5).truncate(-2))  # inexact single term
    return out


@pytest.mark.parametrize("p,e,d", SERIES_TOWERS)
def test_differential_inv(p, e, d):
    ctx = Completion(p, e, d)
    rng = random.Random(f"inv:{p}:{e}:{d}")
    for x in _inv_inputs(ctx, rng):
        for rel in (1, 5, 24, 40):
            got, want = x.inv(rel), _inv_reference(x, rel)
            assert (got.offset, got.prec) == (want.offset, want.prec)
            assert got.coeffs.shape == want.coeffs.shape
            assert (got.coeffs == want.coeffs).all()


@pytest.mark.parametrize("p,e,d", SERIES_TOWERS)
def test_differential_stack_inv_rows(p, e, d):
    """Each row of a stacked inverse is that row's inverse taken alone."""
    ctx = Completion(p, e, d)
    rng = random.Random(f"stack:{p}:{e}:{d}")
    m = ctx.spec.m
    for dprec in (PREC_EXACT, 14):
        xs = [x for x in _inv_inputs(ctx, rng) if x.is_exact() and x.valuation() < dprec]
        xs = [x.truncate(dprec) for x in xs]
        lo = min(x.offset for x in xs)
        hi = max(x.end() for x in xs)
        D = np.zeros((len(xs), hi - lo, m), dtype=np.int64)
        for i, x in enumerate(xs):
            D[i, x.offset - lo : x.end() - lo] = x.coeffs
        for rel in (24, 7):
            X, off, prec = stack_inv(ctx, D, lo, dprec, rel)
            for i, x in enumerate(xs):
                assert RamLaurent(ctx, int(off[i]), X[i], int(prec[i])) == x.inv(rel)
                # single terms are found from the rows: exact, one coefficient
                single = x.is_exact() and x.coeffs.shape[0] == 1
                assert (prec[i] >= PREC_EXACT) == single


@settings(max_examples=60, deadline=None)
@given(
    tower=st.sampled_from(SERIES_TOWERS),
    lo=st.integers(-6, 3),
    idx=st.lists(st.integers(0, 63), min_size=1, max_size=14),
    idy=st.lists(st.integers(0, 63), min_size=1, max_size=14),
    cut_x=st.integers(1, 20),
    cut_y=st.integers(1, 20),
    n=st.integers(1, 40),
)
def test_truncation_soundness(tower, lo, idx, idy, cut_x, cut_y, n):
    """A truncated input gives an inverse and a product that agree with the
    exact ones to the precision they claim, and x * x.inv(n) is 1 to that."""
    ctx = Completion(*tower)
    spec = ctx.spec

    def series(ids):
        cs = [spec.from_index(i % spec.order) for i in ids]
        cs[0] = cs[0] if not cs[0].is_zero() else spec.one
        return ctx.from_terms([(lo + k, c) for k, c in enumerate(cs)])

    x, y = series(idx), series(idy)
    P, Q = x.valuation() + cut_x, y.valuation() + cut_y
    big = P - x.valuation() + 8
    assert (x.truncate(P).inv(big) - x.inv(big)).is_zero()
    assert (x.truncate(P) * y.truncate(Q) - x * y).is_zero()
    r = x * x.inv(n) - ctx.one()
    assert r.is_zero() and r.prec >= n


@settings(max_examples=120, deadline=None)
@given(
    tower=st.sampled_from(SERIES_TOWERS),
    lo_c=st.integers(-8, 8),
    lo_b=st.integers(-8, 8),
    idc=st.lists(st.integers(0, 63), max_size=12),
    idb=st.lists(st.integers(0, 63), max_size=12),
    cut_c=st.one_of(st.none(), st.integers(-3, 14)),
    cut_b=st.one_of(st.none(), st.integers(-3, 14)),
    P=st.integers(-20, 30),
)
def test_truncate_before_multiply(tower, lo_c, lo_b, idc, idb, cut_c, cut_b, P):
    """(c.truncate(P - v_b) * b).truncate(P) == (c * b).truncate(P) with
    v_b = b.valuation(), for exact, inexact, term-free and exact-zero factors:
    the lemma behind papanikolas_L's truncated scalar products."""
    ctx = Completion(*tower)
    spec = ctx.spec

    def series(lo, ids, cut):
        x = ctx.from_terms([(lo + k, spec.from_index(i % spec.order))
                            for k, i in enumerate(ids)])
        return x if cut is None else x.truncate(lo + cut)

    c, b = series(lo_c, idc, cut_c), series(lo_b, idb, cut_b)
    assert (c.truncate(P - b.valuation()) * b).truncate(P) == (c * b).truncate(P)


PRECS = st.one_of(st.just(PREC_EXACT), st.integers(-40, 60))
# (precision, valuation) of one factor; the exact zero has both at PREC_EXACT
FACTORS = st.one_of(st.tuples(PRECS, st.integers(-40, 60)), st.just((PREC_EXACT, PREC_EXACT)))


@settings(max_examples=200, deadline=None)
@example(quads=[(PREC_EXACT, PREC_EXACT, PREC_EXACT, -7), (10, -3, PREC_EXACT, PREC_EXACT),
                (PREC_EXACT, PREC_EXACT, 5, -30)])
@given(st.lists(st.tuples(FACTORS, FACTORS).map(lambda f: f[0] + f[1]), min_size=1, max_size=12))
def test_mul_precs_is_mul_prec_elementwise(quads):
    """mul_precs on arrays equals mul_prec on every (pa, va, pb, vb), exact
    and inexact factors at negative and positive valuations alike, also when
    one side is a scalar broadcast against an array.  An exact-zero factor
    gives the exact zero, also against a negative valuation."""
    pa, va, pb, vb = (np.array(c, dtype=np.int64) for c in zip(*quads))
    want = [mul_prec(*q) for q in quads]
    assert mul_precs(pa, va, pb, vb).tolist() == want
    assert all(w == PREC_EXACT for w, q in zip(want, quads) if max(q[1], q[3]) >= PREC_EXACT)
    assert mul_precs(pa, va, int(pb[0]), int(vb[0])).tolist() == [
        mul_prec(int(x), int(y), int(pb[0]), int(vb[0])) for x, y in zip(pa, va)]


def test_mul_precs_exact_times_exact_negative_valuations():
    """Two exact factors give an exact product whatever their valuations;
    one exact factor at a negative valuation lowers the other's precision."""
    P = mul_precs(np.array([PREC_EXACT, PREC_EXACT, 10]), np.array([-5, -30, -3]),
                  np.array([PREC_EXACT, PREC_EXACT, PREC_EXACT]), np.array([-7, 2, -4]))
    assert P.tolist() == [PREC_EXACT, PREC_EXACT, 6]
    assert P.tolist() == [mul_prec(PREC_EXACT, -5, PREC_EXACT, -7),
                          mul_prec(PREC_EXACT, -30, PREC_EXACT, 2),
                          mul_prec(10, -3, PREC_EXACT, -4)]
