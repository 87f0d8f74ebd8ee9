"""Tests for ramified Laurent arithmetic, precision rules, and sampling."""

import random
from fractions import Fraction

import pytest

from carlitz.errors import (
    ConfigError,
    EmptyPrecisionError,
    FieldMismatchError,
    ZeroInverseError,
)
from carlitz.fields import RatFunc
from carlitz.laurent import PREC_EXACT, Completion, RamLaurent, sample_z


def ctx_q3():
    return Completion(3, 1, 1, wp=32)


def rand_exact(ctx, rng, lo=-6, hi=8, density=0.6):
    terms = []
    for k in range(lo, hi):
        if rng.random() < density:
            terms.append((k, ctx.spec.from_index(rng.randrange(ctx.spec.order))))
    return ctx.from_terms(terms)


def test_embed_theta_frozen():
    ctx = ctx_q3()
    th = ctx.theta()
    pairs = th.to_pairs()
    assert len(pairs) == 1
    k, c = pairs[0]
    assert k == -2
    assert c.index == 2
    # theta * theta^-1 == 1
    assert (th * th.inv()) == ctx.one()
    # embedding of a polynomial: theta^2 + 1 -> u^-4 + 1
    p = ctx.spec.poly([1, 0, 1])
    s = ctx.embed_poly(p)
    assert s.to_pairs() == [(-4, ctx.spec.one), (0, ctx.spec.one)]


def test_embed_sign_alternates():
    ctx = Completion(2, 1, 1, wp=16)
    # q=2: theta = u^-1 exactly (minus is plus)
    assert ctx.theta().to_pairs() == [(-1, ctx.spec.one)]
    ctx3 = ctx_q3()
    th3 = ctx3.embed_poly(ctx3.spec.poly([0, 0, 0, 1]))  # theta^3
    assert th3.to_pairs() == [(-6, -ctx3.spec.one)]


def test_lambda_relation():
    # lambda^(q-1) = -theta in every tower
    for params in ((2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2)):
        ctx = Completion(*params, wp=8)
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
    ctx = Completion(*params, wp=8)
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
    ctx = Completion(3, 1, 2, wp=24)
    rng = random.Random(9)
    for _ in range(40):
        a = rand_exact(ctx, rng, density=0.8)
        if a.is_zero():
            continue
        b = a.inv()
        res = a * b - ctx.one()
        assert res.is_zero()
        # relative precision of the certificate
        assert res.prec >= ctx.wp - a.valuation() + a.valuation()


def test_inverse_precision_rule():
    ctx = ctx_q3()
    a = ctx.from_terms([(-3, ctx.spec.one), (0, ctx.spec.from_subfield(2))], prec=10)
    b = a.inv()
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
        ctx.zero().inv()
    with pytest.raises(EmptyPrecisionError):
        ctx.zero(prec=5).inv()
    with pytest.raises(EmptyPrecisionError):
        ctx.from_terms([(0, ctx.spec.one)], prec=4).coeff_at(6)
    with pytest.raises(FieldMismatchError):
        ctx.one() + Completion(2, 1, 1).one()


def test_qpow_matches_repeated_product():
    for params in ((2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2)):
        ctx = Completion(*params, wp=8)
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
    ctx4 = Completion(2, 2, 1, wp=8)
    c = ctx4.spec.from_index(2)
    a4 = ctx4.from_field(c, 1)
    assert a4.qpow().to_pairs() == [(4, c.frobenius())]


def test_pow_and_shift_and_scale():
    ctx = ctx_q3()
    rng = random.Random(6)
    a = rand_exact(ctx, rng)
    assert a ** 3 == a * a * a
    assert a ** 0 == ctx.one()
    assert a.shift(5) == a * ctx.u_pow(5)
    c = ctx.spec.from_subfield(2)
    assert a.scale(c) == a * ctx.from_field(c)
    assert a.scale(ctx.spec.zero).is_exact_zero()


def test_truncate_and_window():
    ctx = ctx_q3()
    a = ctx.from_terms([(k, ctx.spec.one) for k in range(-2, 6)])
    t = a.truncate(3)
    assert t.prec == 3
    assert t.end() <= 3
    w = a.window(4)
    assert w.offset == -2
    assert w.prec == 2
    # truncating below the valuation leaves a term-free bound, not an error
    z = a.truncate(-5)
    assert z.is_zero() and z.prec == -5


def test_embed_rat():
    ctx = ctx_q3()
    f = RatFunc(ctx.spec.poly([1]), ctx.spec.poly([0, 1]))  # 1/theta
    s = ctx.embed_rat(f, rel_prec=10)
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
    im = ctx.im_part(z)
    assert im.to_pairs() == [(1, ctx.spec.one)]
    assert ctx.im_norm_exp(ctx.lam()) == Fraction(1, 2)
    assert ctx.im_norm_exp(ctx.theta()) == float("-inf")
    # d=2: tower coordinate outside F_q is imaginary even on the q-1 grid
    ctx2 = Completion(3, 1, 2, wp=8)
    zeta = ctx2.spec.from_index(3)
    z2 = ctx2.from_field(zeta, -2)
    assert ctx2.im_norm_exp(z2) == 1
    base = ctx2.from_field(1, -2)
    assert ctx2.im_norm_exp(base) == float("-inf")


def test_im_part_q2():
    ctx = Completion(2, 1, 2, wp=8)
    # x-block is the base completion at every exponent when q = 2
    z = ctx.from_terms([(-1, ctx.spec.one), (0, ctx.spec.from_index(2))])
    im = ctx.im_part(z)
    assert im.to_pairs() == [(0, ctx.spec.from_index(2))]


@pytest.mark.parametrize("regime,check", [
    ("small", lambda n: n < 0),
    ("unit", lambda n: n == 0),
    ("large", lambda n: n > 0),
])
def test_sampler_regimes(regime, check):
    for params in ((2, 1, 1), (3, 1, 1), (2, 2, 1)):
        ctx = Completion(*params, wp=8)
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
        ctx = Completion(*params, wp=8)
        rng = random.Random(77)
        for _ in range(25):
            z = sample_z(ctx, rng, "imag_large")
            assert ctx.im_norm_exp(z) >= 1
    with pytest.raises(ConfigError):
        sample_z(Completion(2, 1, 1, wp=8), random.Random(1), "imag_large")
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
