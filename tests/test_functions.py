"""Tests for the special-function layer: series, lattice sums, L-values."""

import random
import re
from fractions import Fraction

import pytest

from carlitz import functions
from carlitz.errors import (
    AlphaTooLargeError,
    ConfigError,
    LatticePoleError,
    ShapeMismatchError,
    SingularSystemError,
)
from carlitz.fields import enumerate_A
from carlitz.functions import (
    SeriesBudget,
    L_multi,
    _cancel_exp,
    _char_coeffs,
    _geometric,
    _monic_block,
    agf_f,
    carlitz_constants,
    carlitz_e,
    carlitz_exp,
    chi_t,
    default_budget,
    omega,
    papanikolas_L,
    pi_tilde,
    psi,
    ram_solve,
    u_m_val,
    u_val,
)
from carlitz.laurent import NEG_INF, Completion, sample_z
from carlitz.tate import (
    TateElem,
    tate_const,
    tate_t_minus_theta,
    tate_var,
)

from oracles import tate_poly_t


def ctx2():
    return Completion(2, 1, 1, wp=64)


def ctx3():
    return Completion(3, 1, 1, wp=64)


def small_z(ctx, rng, rounds):
    return [sample_z(ctx, rng, "small") for _ in range(rounds)]


# -- exact constants


def test_constants_base():
    for ctx in (ctx2(), ctx3()):
        spec = ctx.spec
        d0, l0 = carlitz_constants(ctx, 0)
        assert d0.coeffs == spec.poly([1]).coeffs and l0.coeffs == spec.poly([1]).coeffs
        d1, l1 = carlitz_constants(ctx, 1)
        want = [spec.zero] * (ctx.q + 1)
        want[1] = -spec.one
        want[ctx.q] = spec.one
        assert d1.coeffs == spec.poly(want).coeffs
        assert l1.coeffs == (-d1).coeffs


def test_constants_product_oracles():
    # d_i is the product of all monic polynomials of degree i, and
    # (-1)^i l_i is their least common multiple
    for ctx in (ctx2(), ctx3()):
        spec = ctx.spec
        for i in (1, 2):
            d_i, l_i = carlitz_constants(ctx, i)
            assert d_i.degree == i * ctx.q**i
            prod = spec.poly([1])
            lcm = spec.poly([1])
            for a in enumerate_A(spec, i, monic=True):
                prod = prod * a
                lcm = (lcm * a) // lcm.gcd(a)
            assert d_i.coeffs == prod.coeffs
            sign = spec.one if i % 2 == 0 else -spec.one
            assert l_i.coeffs == lcm.scale(sign).coeffs


# -- period and exponential


def test_pi_tilde_leading_term():
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 40)
        pi = pi_tilde(ctx, B)
        assert pi.valuation() == -ctx.q
        assert pi.coeff_at(-ctx.q) == -ctx.spec.one
        assert B.n_terms["pi_tilde"] >= 2
        # refining the budget only appends digits
        hi = pi_tilde(ctx, default_budget(ctx, 80))
        assert hi.truncate(pi.prec) == pi


def test_exp_kills_period_lattice():
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 40)
        pi = pi_tilde(ctx, B)
        assert carlitz_exp(ctx, pi, B).is_zero()
        for coeffs in ([1], [0, 1], [1, 1, 1]):
            a = ctx.embed_poly(ctx.spec.poly(coeffs))
            assert carlitz_e(ctx, a, B).is_zero()
        z = ctx.u_pow(1) + ctx.one()
        assert (carlitz_e(ctx, z, B) - carlitz_exp(ctx, pi * z, B)).is_zero()


def test_exp_additive_and_periodic():
    rng = random.Random(11)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 36)
        for _ in range(10):
            z1 = sample_z(ctx, rng, "small")
            z2 = sample_z(ctx, rng, "unit")
            s = carlitz_e(ctx, z1 + z2, B)
            d = s - carlitz_e(ctx, z1, B) - carlitz_e(ctx, z2, B)
            assert d.is_zero()
            c = ctx.spec.from_subfield(rng.randrange(1, ctx.q))
            assert carlitz_e(ctx, z1.scale(c), B) == carlitz_e(ctx, z1, B).scale(c)
            shift = ctx.embed_poly(ctx.spec.poly([1, 1]))
            assert (carlitz_e(ctx, z1 + shift, B) - carlitz_e(ctx, z1, B)).is_zero()


def test_u_inverts_exp_and_poles():
    rng = random.Random(5)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 36)
        z = sample_z(ctx, rng, "small")
        u = u_val(ctx, z, B)
        assert (u * carlitz_e(ctx, z, B) - ctx.one()).is_zero()
        with pytest.raises(LatticePoleError):
            u_val(ctx, ctx.theta(), B)
        m = ctx.spec.poly([0, 1])
        um = u_m_val(ctx, z, m, B)
        direct = (ctx.embed_poly(m) * carlitz_e(ctx, z * ctx.theta().inv(), B)).inv(B.wp)
        assert (um - direct).is_zero()


# -- omega and the generating function


def test_omega_two_routes():
    # product formula against the value of the generating function at 1
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 40)
        tcap = 12
        om = omega(ctx, tcap, B)
        assert om.gauss_norm_exp() == Fraction(1, ctx.q - 1)
        assert om.tail_norm_exp <= Fraction(1, ctx.q - 1) - (tcap + 1)
        d = om - agf_f(ctx, ctx.one(), tcap, B)
        assert d.norm_bound_exp() <= Fraction(-(tcap + 1)) + 1


def test_omega_difference_equation():
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 40)
        tcap = 10
        om = omega(ctx, tcap, B)
        d = om.tau() - tate_t_minus_theta(ctx, 1, tcap, 0) * om
        # both sides start at the q-fold tail, so compare against that floor
        assert d.norm_bound_exp() <= max(Fraction(-B.prec, ctx.ram),
                                         Fraction(1, ctx.q - 1) - (tcap + 1) + 1)


def test_agf_difference_equation():
    rng = random.Random(23)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 36)
        tcap = 10
        tmth = tate_t_minus_theta(ctx, 1, tcap, 0)
        for regime in ("small", "small", "unit", "small", "unit"):
            z = sample_z(ctx, rng, regime)
            f = agf_f(ctx, z, tcap, B)
            e = tate_const(ctx, 1, tcap, carlitz_e(ctx, z, B))
            d = f.tau() - e - tmth * f
            assert d.norm_bound_exp() <= f.tail_norm_exp * 1 + Fraction(3)
            assert d.gauss_norm_exp() <= Fraction(-B.prec + 2, ctx.ram)
        assert agf_f(ctx, ctx.zero(), tcap, B).gauss_norm_exp() == NEG_INF


def test_chi_interpolates_lattice():
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 40)
        tcap = 12
        for coeffs in ([1], [0, 1], [1, 0, 1], [0, 1, 1, 1]):
            a = ctx.spec.poly(coeffs)
            got = chi_t(ctx, ctx.embed_poly(a), tcap, B)
            d = got - tate_poly_t(ctx, 1, tcap, 0, a)
            assert d.gauss_norm_exp() <= Fraction(-B.prec + 2, ctx.ram)


def test_chi_additive():
    rng = random.Random(31)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 32)
        tcap = 8
        for _ in range(6):
            z1 = sample_z(ctx, rng, "small")
            z2 = sample_z(ctx, rng, "unit")
            d = chi_t(ctx, z1 + z2, tcap, B) - chi_t(ctx, z1, tcap, B) - chi_t(ctx, z2, tcap, B)
            assert d.gauss_norm_exp() <= Fraction(-B.prec + 4, ctx.ram)
            c = ctx.spec.from_subfield(rng.randrange(1, ctx.q))
            d2 = chi_t(ctx, z1.scale(c), tcap, B) - chi_t(ctx, z1, tcap, B).scalar_mul(ctx.from_field(c))
            assert d2.gauss_norm_exp() <= Fraction(-B.prec + 4, ctx.ram)


def test_chi_norm_bounds():
    # contraction on |z| < q, and the general exp-norm bound
    rng = random.Random(41)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 32)
        tcap = 8
        for _ in range(5):
            z = sample_z(ctx, rng, "small")
            ct = chi_t(ctx, z, tcap, B)
            assert ct.gauss_norm_exp() == z.norm_exp()
            e_norm = carlitz_e(ctx, z, B).norm_exp()
            assert ct.gauss_norm_exp() <= max(Fraction(0), Fraction(e_norm, ctx.q))
        z = sample_z(ctx, rng, "unit")
        assert chi_t(ctx, z, tcap, B).gauss_norm_exp() == z.norm_exp()


def test_chi_growth_off_axis():
    # for z with large component off the rational axis the norm is pinned to
    # q^(-1/(q-1)) |e(z)|^(1/q); needs odd exponents, so run at q = 3
    ctx = ctx3()
    rng = random.Random(61)
    B = default_budget(ctx, 40)
    for _ in range(3):
        z = sample_z(ctx, rng, "imag_large")
        assert ctx.im_norm_exp(z) >= 1
        e_norm = carlitz_e(ctx, z, B).norm_exp()
        got = chi_t(ctx, z, 8, B).gauss_norm_exp()
        assert got == Fraction(-1, ctx.q - 1) + Fraction(e_norm, ctx.q)


# -- logarithm series


def test_log_series_certificate():
    ctx = ctx3()
    B = default_budget(ctx, 40)
    tcap = 10
    alpha = ctx.one() + ctx.u_pow(1)
    L = papanikolas_L(ctx, alpha, tcap, B)
    delta, c_exp = L.decay
    assert delta == ctx.q and c_exp == Fraction(0)
    for e in L.exponents():
        assert L.coeff(e).norm_exp() <= c_exp - delta * e[0]
    with pytest.raises(AlphaTooLargeError):
        papanikolas_L(ctx, ctx.lam() ** ctx.q, tcap, B)
    # just inside the disk is fine
    papanikolas_L(ctx, ctx.lam() ** ctx.q * ctx.u_pow(1), tcap, B)


def test_log_exp_roundtrip():
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 30)
        tcap = 34
        alpha = ctx.one() + ctx.u_pow(1) + ctx.u_pow(3)
        v = papanikolas_L(ctx, alpha, tcap, B).at_theta(0).coeff(())
        assert v.prec >= B.prec
        back = carlitz_exp(ctx, v, SeriesBudget(v.prec, 0))
        assert (back - alpha).is_zero()


def test_log_of_exp_recovers_period_multiple():
    rng = random.Random(3)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 30)
        tcap = 34
        z = sample_z(ctx, rng, "small")
        alpha = carlitz_e(ctx, z, B)
        v = papanikolas_L(ctx, alpha, tcap, B).at_theta(0).coeff(())
        d = v - pi_tilde(ctx, B) * z
        assert d.is_zero()


def test_log_functional_equation():
    # L at e(z) equals (theta - t) omega chi(z) on |z| < 1
    rng = random.Random(13)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 36)
        tcap = 10
        om = omega(ctx, tcap, B)
        mth = -tate_t_minus_theta(ctx, 1, tcap, 0)
        for _ in range(3):
            z = sample_z(ctx, rng, "small")
            L = papanikolas_L(ctx, carlitz_e(ctx, z, B), tcap, B)
            d = L - mth * om * chi_t(ctx, z, tcap, B)
            assert d.gauss_norm_exp() <= Fraction(-B.prec + 4, ctx.ram)


# -- lattice sums and L-series


def test_monic_degree_sums_closed_form():
    # sum over monic a of degree j of a(t)/a = prod_{i<j} (t - theta^{q^i}) / l_j
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 40)
        tcap = 12
        for j in (1, 2, 3):
            total = None
            for a in enumerate_A(ctx.spec, j, monic=True):
                term = tate_poly_t(ctx, 1, tcap, 0, a).scalar_mul(
                    ctx.embed_poly(a).inv(B.wp))
                total = term if total is None else total + term
            rhs = tate_const(ctx, 1, tcap, ctx.one())
            for i in range(j):
                rhs = rhs * (tate_var(ctx, 1, tcap, 0)
                             - tate_const(ctx, 1, tcap, ctx.theta().qpow(i)))
            _, l_j = carlitz_constants(ctx, j)
            rhs = rhs.scalar_mul(ctx.embed_poly(l_j).inv(B.wp))
            d = total - rhs
            assert d.gauss_norm_exp() <= Fraction(-B.prec, ctx.ram) + 2


def test_cancellation_exponent_matches_brute_force():
    # brute force: distribute at most `weight` free units over the j
    # coordinates, pay ((-w) mod (q-1), at least one unit total) per
    # coordinate at cost (j - position)
    def brute(q, weight, j):
        best = None
        stack = [(0, weight, 0)]
        while stack:
            i, left, cost = stack.pop()
            if i == j:
                best = cost if best is None else min(best, cost)
                continue
            for w in range(left + 1):
                if w == 0:
                    need = q - 1
                elif w % (q - 1) == 0:
                    need = 0
                else:
                    need = (q - 1) - w % (q - 1)
                stack.append((i + 1, left - w, cost + need * (j - i)))
        return best

    for q in (2, 3, 4, 5):
        for j in range(5):
            for weight in range(7):
                assert _cancel_exp(q, weight, j) == brute(q, weight, j)
    assert _cancel_exp(3, 1, 3) == 9
    assert _cancel_exp(2, 1, 3) == 3


def test_block_norms_meet_bound():
    # exact block sums sit inside the proved envelope q^(-jn - C(j))
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 48)
        for s in (0, 1, 2):
            for n in (1, 2):
                for j in (1, 2, 3):
                    block = L_multi(ctx, s, n, j + 1, 8, B) - L_multi(ctx, s, n, j, 8, B)
                    bound = Fraction(-(j * n + _cancel_exp(ctx.q, s, j)))
                    assert block.gauss_norm_exp() <= bound


def test_L_degree_zero_block():
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 32)
        one_block = L_multi(ctx, 1, 3, 1, 6, B)
        assert one_block.coeff((0,)) == ctx.one()
        assert one_block.gauss_norm_exp() == Fraction(0)
        with pytest.raises(ShapeMismatchError):
            L_multi(ctx, 2, 1, 4, 6, B, powers=(1,))
        with pytest.raises(ShapeMismatchError):
            L_multi(ctx, 1, 0, 4, 6, B)


def test_psi_zero_matches_exp_route():
    # the characterless lattice sum is the logarithmic derivative: pi/e(z)
    rng = random.Random(17)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 36)
        pi = pi_tilde(ctx, B)
        for _ in range(5):
            z = sample_z(ctx, rng, "small")
            lhs = psi(ctx, 0, z, 14, 0, B).coeff(())
            rhs = pi * u_val(ctx, z, B)
            assert (lhs - rhs).valuation() >= B.prec - 1
            w = lhs * z - ctx.one()
            assert w.valuation() == (ctx.q - 1) * z.valuation()


def test_psi_one_product_route():
    rng = random.Random(29)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 36)
        tcap = 10
        pi = pi_tilde(ctx, B)
        for _ in range(4):
            z = sample_z(ctx, rng, "small")
            lhs = psi(ctx, 1, z, 14, tcap, B)
            rhs = chi_t(ctx, z, tcap, B).scalar_mul(pi * u_val(ctx, z, B))
            d = lhs - rhs
            assert d.gauss_norm_exp() <= Fraction(-B.prec + 4, ctx.ram)


def test_psi_guards():
    ctx = ctx3()
    B = default_budget(ctx, 24)
    with pytest.raises(LatticePoleError):
        psi(ctx, 1, ctx.theta(), 6, 4, B)
    with pytest.raises(ConfigError):
        psi(ctx, 1, ctx.theta().qpow(2), 6, 4, B)
    with pytest.raises(LatticePoleError):
        psi(ctx, 0, ctx.zero(B.wp), 6, 0, B)


def test_psi_character_powers():
    # dropping a variable's character factor reproduces the smaller-arity sum
    # lifted into the bigger variable ring; all-zero powers reduce to arity 0
    rng = random.Random(41)
    ctx = ctx3()
    B = default_budget(ctx, 32)
    tcap, degcap = 8, 12
    for _ in range(2):
        z = sample_z(ctx, rng, "unit")
        sub = psi(ctx, 2, z, degcap, tcap, B, powers=(0, 1))
        lift = psi(ctx, 1, z, degcap, tcap, B).embed_vars(2, (1,))
        d = sub - lift
        assert all(c.is_zero() for c in d.terms.values())
        assert d.prec_floor() >= B.prec - 4
    flat = psi(ctx, 2, z, degcap, 0, B, powers=(0, 0))
    bare = psi(ctx, 0, z, degcap, 0, B)
    assert (flat.coeff((0, 0)) - bare.coeff(())).is_zero()
    dflt = psi(ctx, 2, z, degcap, tcap, B)
    ones = psi(ctx, 2, z, degcap, tcap, B, powers=(1, 1))
    dd = dflt - ones
    assert all(c.is_zero() for c in dd.terms.values())
    with pytest.raises(ShapeMismatchError):
        psi(ctx, 2, z, degcap, tcap, B, powers=(1,))
    with pytest.raises(ShapeMismatchError):
        psi(ctx, 2, z, degcap, tcap, B, powers=(1, -1))


def test_generating_series_in_z():
    # psi_s(z) = sum of z^{n-1} L(n) over n = s mod (q-1): compare against the
    # first three terms; the remainder is bounded by the next power of z
    ctx = ctx3()
    B = default_budget(ctx, 40)
    tcap = 8
    z = ctx.u_pow(6)  # |z| = q^-3
    for s in (1, 2):
        ns = [s + k * (ctx.q - 1) for k in range(3)]
        if s == 2:
            ns = [n for n in ns]
        acc = None
        for n in ns:
            term = L_multi(ctx, s, n, 12, tcap, B).scalar_mul(z ** (n - 1))
            acc = term if acc is None else acc + term
        d = psi(ctx, s, z, 12, tcap, B) - acc
        nxt = s + 3 * (ctx.q - 1)
        assert d.norm_bound_exp() <= Fraction(-3 * (nxt - 1))


def test_zeta_series_at_s_zero():
    # z * psi_0(z) = 1 + sum_k z^{k(q-1)} zeta(k(q-1))
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 40)
        z = ctx.u_pow(3 * ctx.ram)
        lhs = psi(ctx, 0, z, 12, 0, B).coeff(()) * z
        acc = ctx.one()
        for k in (1, 2):
            zeta = L_multi(ctx, 0, k * (ctx.q - 1), 12, 0, B).coeff(())
            acc = acc + zeta * z ** (k * (ctx.q - 1))
        assert (lhs - acc).norm_exp() <= Fraction(-9 * (ctx.q - 1))


def test_lseries_omega_period_value():
    # omega (theta - t) L(1) telescopes to the period
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 40)
        tcap = 10
        lhs = omega(ctx, tcap, B) * (-tate_t_minus_theta(ctx, 1, tcap, 0)) \
            * L_multi(ctx, 1, 1, 16, tcap, B)
        d = lhs - tate_const(ctx, 1, tcap, pi_tilde(ctx, B))
        assert d.gauss_norm_exp() <= Fraction(-B.prec + 4, ctx.ram)
        assert d.tail_norm_exp <= Fraction(1, ctx.q - 1) - (tcap + 1) + 1


def test_twisted_difference_equations_at_value():
    # the weight-one sum transforms under the coefficient Frobenius and under
    # the variable substitution t -> t^q by the stated affine laws
    rng = random.Random(37)
    for ctx in (ctx2(), ctx3()):
        B = default_budget(ctx, 30)
        tcap = 12
        z = sample_z(ctx, rng, "small")
        pu = pi_tilde(ctx, B) * u_val(ctx, z, B)
        p1 = psi(ctx, 1, z, 12, tcap, B)
        L1 = L_multi(ctx, 1, 1, 12, tcap, B)
        d = p1.tau() - (p1 - L1).scalar_mul(pu ** (ctx.q - 1))
        assert d.gauss_norm_exp() <= Fraction(-B.prec + 6, ctx.ram)
        pq = p1
        for _ in range(ctx.q - 1):
            pq = pq * p1
        Lq = L_multi(ctx, 1, 1, 12, tcap, B, powers=(ctx.q,))
        d2 = p1.phi(0) - pq.scalar_mul((pu ** (ctx.q - 1)).inv(B.wp)) - Lq
        assert d2.gauss_norm_exp() <= Fraction(-B.prec + 6, ctx.ram)


# -- the block kernel against the per-term loops it replaced


def _psi_reference(ctx, s, z, degcap, tcap, budget, powers=None):
    """psi as a per-term loop: one inversion and one scaled add per (a, c)."""
    wp = budget.wp
    q, ram = ctx.q, ctx.ram
    if powers is None:
        powers = (1,) * s
    powers = tuple(powers)
    weight = sum(powers)
    az = z.norm_exp()
    units = [c for c in ctx.spec.subfield_elements() if not c.is_zero()]
    out = {}
    zero_e = (0,) * s

    def bump(e, val):
        prev = out.get(e)
        out[e] = val if prev is None else prev + val

    if weight == 0:
        if z.is_zero():
            raise LatticePoleError("z vanishes to working precision (a = 0 pole)")
        bump(zero_e, z.inv(wp))
    tail = Fraction(-(degcap + _cancel_exp(q, weight, degcap)))
    blocks = []
    for j in range(degcap):
        c_j = _cancel_exp(q, weight, j)
        if Fraction(j) > az and ram * (j + c_j) >= wp + 2:
            tail = max(tail, Fraction(-(j + c_j)))
            continue
        blocks.append(j)
        for a, emb in _monic_block(ctx, j):
            chi = _char_coeffs(ctx, a, powers)
            for c in units:
                denom = z - emb.scale(c)
                if denom.is_zero():
                    raise LatticePoleError(
                        f"z meets the lattice at degree {j} to precision {denom.prec}")
                invd = denom.inv(wp)
                cs = c**weight
                for e, coef in chi.items():
                    bump(e, invd.scale(coef * cs))
    budget.n_terms["psi"] = blocks
    return TateElem(ctx, s, tcap, out, tail)


def _L_multi_reference(ctx, s, n, degcap, tcap, budget, powers=None):
    """L_multi as a per-term loop: one inversion per monic a."""
    wp = budget.wp
    q, ram = ctx.q, ctx.ram
    if powers is None:
        powers = (1,) * s
    weight = sum(powers)
    out = {}
    tail = Fraction(-(n * degcap + _cancel_exp(q, weight, degcap)))
    blocks = []
    for j in range(degcap):
        c_j = _cancel_exp(q, weight, j)
        if ram * (j * n + c_j) >= wp + 2:
            tail = max(tail, Fraction(-(j * n + c_j)))
            continue
        blocks.append(j)
        for a, emb in _monic_block(ctx, j):
            chi = _char_coeffs(ctx, a, powers)
            an_inv = emb.inv(wp) if n == 1 else (emb**n).inv(wp)
            for e, coef in chi.items():
                prev = out.get(e)
                v = an_inv.scale(coef)
                out[e] = v if prev is None else prev + v
    budget.n_terms["L_multi"] = blocks
    return TateElem(ctx, s, tcap, out, tail)


def _assert_same(got, want):
    assert list(got.terms) == list(want.terms)
    for e, c in want.terms.items():
        g = got.terms[e]
        assert (g.offset, g.prec) == (c.offset, c.prec), e
        assert g == c, e
    assert got.tail_norm_exp == want.tail_norm_exp


KERNEL_TOWERS = [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2), (5, 1, 1)]
KERNEL_POWERS = [(), (1,), (2,), (0, 0), (1, 0), (1, 1)]


@pytest.mark.parametrize("p,e,d", KERNEL_TOWERS)
def test_differential_psi_kernel(p, e, d):
    ctx = Completion(p, e, d, wp=64)
    B = default_budget(ctx, 12)
    rng = random.Random(f"psi-kernel:{p}:{e}:{d}")
    degcap = 3 if ctx.q >= 4 else 5
    zs = [sample_z(ctx, rng, regime) for regime in ("small", "unit", "large")]
    zs = [z for z in zs if z.norm_exp() < degcap]
    # inexact points; the large one gives rows of several valuations, so
    # each row keeps its own number of coefficients
    zs += [z.truncate(z.valuation() + 5) for z in (zs[0], zs[-1])]
    zs.append(ctx.zero())  # exact single-term denominators
    for z in zs:
        for powers in KERNEL_POWERS:
            if z.is_zero() and not any(powers):
                continue
            s = len(powers)
            b_got, b_want = default_budget(ctx, 12), default_budget(ctx, 12)
            try:
                want = _psi_reference(ctx, s, z, degcap, 2, b_want, powers=powers)
            except LatticePoleError as err:
                with pytest.raises(LatticePoleError, match=re.escape(str(err))):
                    psi(ctx, s, z, degcap, 2, b_got, powers=powers)
                continue
            _assert_same(psi(ctx, s, z, degcap, 2, b_got, powers=powers), want)
            assert b_got.n_terms["psi"] == b_want.n_terms["psi"]
    # degree-zero block alone at z = 0: every denominator is a single exact
    # term, so the whole sum stays exact
    exact = psi(ctx, 1, ctx.zero(), 1, 2, B)
    _assert_same(exact, _psi_reference(ctx, 1, ctx.zero(), 1, 2, B))
    assert all(c.is_exact() for c in exact.terms.values())


@pytest.mark.parametrize("p,e,d", KERNEL_TOWERS)
def test_differential_psi_kernel_poles(p, e, d):
    ctx = Completion(p, e, d, wp=64)
    B = default_budget(ctx, 12)
    lattice = ctx.embed_poly(ctx.spec.poly([1, 1]))  # theta + 1
    near = lattice.truncate(1)  # inexact, agrees with the lattice point
    for z, powers in ((lattice, (1,)), (near, (1, 1)), (ctx.zero(B.wp), ())):
        msgs = []
        for fn in (psi, _psi_reference):
            with pytest.raises(LatticePoleError) as err:
                fn(ctx, len(powers), z, 4, 2, B, powers=powers)
            msgs.append(str(err.value))
        assert msgs[0] == msgs[1]


@pytest.mark.parametrize("p,e,d", KERNEL_TOWERS)
def test_differential_L_multi_kernel(p, e, d):
    ctx = Completion(p, e, d, wp=64)
    degcap = 3 if ctx.q >= 4 else 5
    for powers in ((), (1,), (ctx.q,), (1, 1)):
        for n in (1, 2, 3):
            b_got, b_want = default_budget(ctx, 12), default_budget(ctx, 12)
            got = L_multi(ctx, len(powers), n, degcap, 2, b_got, powers=powers)
            want = _L_multi_reference(ctx, len(powers), n, degcap, 2, b_want, powers=powers)
            _assert_same(got, want)
            assert b_got.n_terms["L_multi"] == b_want.n_terms["L_multi"]


def test_block_tables_shared_per_tower(monkeypatch):
    """A second Completion over the same tower reuses the block tables."""
    monkeypatch.setattr(functions, "_TOWER_CACHE", {})
    calls = [0]
    orig = functions._char_coeffs

    def counted(*args):
        calls[0] += 1
        return orig(*args)

    monkeypatch.setattr(functions, "_char_coeffs", counted)
    results, built = [], []
    for _ in range(2):
        ctx = Completion(3, 1, 1, wp=64)
        z = sample_z(ctx, random.Random(71), "small")
        before = calls[0]
        results.append(psi(ctx, 2, z, 4, 2, default_budget(ctx, 12)))
        built.append(calls[0] - before)
    assert built[0] > 0 and built[1] == 0
    want, got = results
    # the two results live in different completions, so compare their parts
    assert list(got.terms) == list(want.terms)
    for e, c in want.terms.items():
        g = got.terms[e]
        assert (g.offset, g.prec, g.coeffs.tolist()) == (c.offset, c.prec, c.coeffs.tolist())
    assert got.tail_norm_exp == want.tail_norm_exp


def test_ram_solve_several_right_hand_sides():
    ctx = ctx3()
    rng = random.Random(47)

    def rand_entry():
        return ctx.from_terms([(k, ctx.spec.from_index(rng.randrange(3)))
                               for k in range(rng.randrange(-4, 0), 3)], 40)

    rows = [[rand_entry() for _ in range(4)] for _ in range(4)]
    rhs = [[rand_entry() for _ in range(4)] for _ in range(5)]
    together = ram_solve(rows, rhs, 48)
    assert len(together) == len(rhs)
    for b, xs in zip(rhs, together):
        for got, want in zip(xs, ram_solve(rows, b, 48)):
            assert got == want


def _geometric_reference(ctx, tcap, base_exp, shift, sign):
    """The product-built geometric series that _geometric replaced."""
    step = ctx.theta().inv() ** base_exp
    cur = step**shift
    if sign < 0:
        cur = -cur
    terms = {}
    for k in range(tcap + 1):
        terms[(k,)] = cur
        cur = cur * step
    return TateElem(ctx, 1, tcap, terms, Fraction(-(tcap + 1 + shift) * base_exp))


@pytest.mark.parametrize("p,e,d", KERNEL_TOWERS)
def test_differential_geometric(p, e, d):
    ctx = Completion(p, e, d, wp=64)
    for tcap in (0, 3, 8):
        for base_exp in (1, 2, 3, 4, 9):
            for shift in (0, 1):
                for sign in (1, -1):
                    got = _geometric(ctx, tcap, base_exp, shift, sign)
                    want = _geometric_reference(ctx, tcap, base_exp, shift, sign)
                    _assert_same(got, want)
                    assert all(c.is_exact() for c in got.terms.values())


# -- linear solves


def test_ram_solve_exact_system():
    ctx = ctx3()
    rng = random.Random(43)
    rows = [[ctx.from_field(ctx.spec.from_index(rng.randrange(1, 3)), rng.randrange(-3, 4))
             for _ in range(3)] for _ in range(3)]
    x = [ctx.from_field(ctx.spec.from_index(rng.randrange(1, 3)), rng.randrange(-2, 3))
         for _ in range(3)]
    b = []
    for r in range(3):
        acc = ctx.zero(64)
        for c in range(3):
            acc = acc + rows[r][c] * x[c]
        b.append(acc)
    got = ram_solve(rows, b, 48)
    for g, want in zip(got, x):
        assert (g - want).is_zero()


def test_ram_solve_singular_and_shapes():
    ctx = ctx3()
    row = [ctx.one(), ctx.theta()]
    with pytest.raises(SingularSystemError):
        ram_solve([row, row], [ctx.one(), ctx.zero(16)], 16)
    with pytest.raises(ShapeMismatchError):
        ram_solve([row], [ctx.one(), ctx.one()], 16)


def test_budget_bookkeeping():
    ctx = ctx2()
    B = default_budget(ctx, 24)
    pi_tilde(ctx, B)
    carlitz_exp(ctx, ctx.u_pow(1), B)
    psi(ctx, 1, ctx.u_pow(1), 8, 4, B)
    assert set(B.n_terms) >= {"pi_tilde", "carlitz_exp", "psi"}
    assert B.wp == 24 + B.pad
