"""Tests for the truncated Tate-algebra layer: arithmetic, twists, evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz.errors import (
    EmptyPrecisionError,
    FieldMismatchError,
    PrecisionExhaustedError,
    ShapeMismatchError,
)
from carlitz.fields import roots_in_ext
from carlitz.laurent import NEG_INF, PREC_EXACT, Completion, RamLaurent
from carlitz.tate import (
    TateElem,
    tate_const,
    tate_t_minus_theta,
    tate_var,
    tate_zero,
)

from oracles import at_theta, tate_poly_t


@pytest.fixture(scope="module")
def ctx32():
    return Completion(3, 1, 2)


@pytest.fixture(scope="module")
def ctx21():
    return Completion(2, 1, 2)


def rand_scalar(ctx, rng, exact=True):
    spec = ctx.spec
    terms = []
    for _ in range(rng.randrange(1, 4)):
        v = rng.randrange(-6, 9)
        c = spec.from_index(rng.randrange(1, spec.order))
        terms.append((v, c))
    prec = PREC_EXACT if exact else rng.randrange(12, 30)
    return ctx.from_terms(terms, prec)


def rand_elem(ctx, rng, s, cap, exact=True):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        e = tuple(rng.randrange(cap + 1) for _ in range(s))
        terms[e] = rand_scalar(ctx, rng, exact)
    return TateElem(ctx, s, cap, terms)


# -- construction


def test_zero_and_const(ctx32):
    z = tate_zero(ctx32, 2, 6)
    assert z.terms == {} and z.tail_norm_exp == NEG_INF
    assert z.gauss_norm_exp() == NEG_INF
    assert z.prec_floor() == PREC_EXACT
    c = tate_const(ctx32, 2, 6, ctx32.zero())
    assert c.terms == {}
    th = tate_const(ctx32, 1, 6, ctx32.theta())
    assert th.coeff((0,)) == ctx32.theta()
    assert th.coeff((3,)).is_exact_zero()


def test_constructor_folds_overcap(ctx32):
    x = TateElem(ctx32, 1, 3, {(5,): ctx32.theta()})
    assert x.terms == {}
    assert x.tail_norm_exp == Fraction(1)


def test_constructor_validation(ctx32, ctx21):
    with pytest.raises(ShapeMismatchError):
        TateElem(ctx32, 2, 4, {(1,): ctx32.one()})
    with pytest.raises(ShapeMismatchError):
        TateElem(ctx32, 1, 4, {(-1,): ctx32.one()})
    with pytest.raises(FieldMismatchError):
        TateElem(ctx32, 1, 4, {(0,): ctx21.one()})
    with pytest.raises(ShapeMismatchError):
        tate_var(ctx32, 2, 4, 5)


def test_coeff_beyond_cap_raises(ctx32):
    x = tate_var(ctx32, 1, 4, 0)
    with pytest.raises(EmptyPrecisionError):
        x.coeff((5,))


def test_t_minus_theta_cancels(ctx32):
    a = tate_t_minus_theta(ctx32, 1, 8, 0)
    b = -a
    z = a + b
    assert z.terms == {} and z.tail_norm_exp == NEG_INF


def test_t_minus_theta_norm(ctx32):
    # max(|1|, |theta|) = q
    assert tate_t_minus_theta(ctx32, 1, 8, 0).gauss_norm_exp() == Fraction(1)


# -- ring laws


def test_ring_laws(ctx32):
    rng = random.Random(7001)
    for _ in range(40):
        s = rng.choice([1, 2])
        A = rand_elem(ctx32, rng, s, 5)
        B = rand_elem(ctx32, rng, s, 5)
        C = rand_elem(ctx32, rng, s, 5)
        assert A + B == B + A
        assert (A + B) + C == A + (B + C)
        assert A * B == B * A
        assert (A * B) * C == A * (B * C)
        assert A * (B + C) == A * B + A * C
        assert (A - A).terms == {}


def test_scalar_mul_matches_const_mul(ctx32):
    rng = random.Random(7002)
    for _ in range(20):
        A = rand_elem(ctx32, rng, 2, 5)
        b = rand_scalar(ctx32, rng)
        assert A.scalar_mul(b) == A * tate_const(ctx32, 2, 5, b)


def test_mixed_shape_errors(ctx32, ctx21):
    a = tate_var(ctx32, 1, 4, 0)
    b = tate_var(ctx32, 2, 4, 0)
    with pytest.raises(ShapeMismatchError):
        a + b
    c = tate_var(ctx21, 1, 4, 0)
    with pytest.raises(FieldMismatchError):
        a + c
    with pytest.raises(FieldMismatchError):
        a.scalar_mul(ctx21.one())


# -- norms and tails


def test_gauss_norm_multiplicative_exact(ctx32):
    # Gauss lemma: with exact coefficients and no tails the norm multiplies
    rng = random.Random(7004)
    for _ in range(25):
        A = TateElem(ctx32, 2, 8, rand_elem(ctx32, rng, 2, 4).terms)
        B = TateElem(ctx32, 2, 8, rand_elem(ctx32, rng, 2, 4).terms)
        P = A * B
        assert P.tail_norm_exp == NEG_INF
        if P.terms:
            assert P.gauss_norm_exp() == A.gauss_norm_exp() + B.gauss_norm_exp()


def test_tail_propagation_rules(ctx32):
    one = ctx32.one()
    A = TateElem(ctx32, 1, 4, {(1,): one}, tail_norm_exp=Fraction(-3))
    B = TateElem(ctx32, 1, 4, {(0,): ctx32.theta()})  # norm exponent 1
    assert (A + B).tail_norm_exp == Fraction(-3)
    assert (A * B).tail_norm_exp == Fraction(-2)
    C = TateElem(ctx32, 1, 4, {(0,): one}, tail_norm_exp=Fraction(-5))
    assert (A * C).tail_norm_exp == max(
        Fraction(-3) + Fraction(0), Fraction(-5) + Fraction(0), Fraction(-8)
    )
    assert A.scalar_mul(ctx32.theta()).tail_norm_exp == Fraction(-2)


def test_mul_fold_beyond_cap(ctx32):
    t = tate_var(ctx32, 1, 3, 0)
    x = TateElem(ctx32, 1, 3, {(2,): ctx32.theta()})
    p = x * t * t
    # t^4 falls outside the cap; its norm (exponent 1) lands in the tail
    assert p.terms == {}
    assert p.tail_norm_exp == Fraction(1)


def test_prec_floor_accounts_for_tail(ctx32):
    x = TateElem(ctx32, 1, 4, {(0,): ctx32.one()}, tail_norm_exp=Fraction(-7, 2))
    assert x.prec_floor() == 7  # ceil(7/2 * ram), ram = 2


# -- tau twist


def test_tau_on_constant(ctx32):
    c = rand_scalar(ctx32, random.Random(7005))
    A = tate_const(ctx32, 1, 4, c)
    assert A.tau().coeff((0,)) == c.qpow(1)


def test_tau_ring_hom(ctx32):
    rng = random.Random(7006)
    for _ in range(20):
        A = rand_elem(ctx32, rng, 2, 4)
        B = rand_elem(ctx32, rng, 2, 4)
        assert (A * B).tau() == A.tau() * B.tau()
        assert (A + B).tau() == A.tau() + B.tau()


def test_tau_scales_norm_and_tail(ctx32):
    A = TateElem(ctx32, 1, 4, {(2,): ctx32.theta()}, tail_norm_exp=Fraction(-5, 2))
    T = A.tau()
    assert T.gauss_norm_exp() == Fraction(3)  # |theta^q| = q^q, q = 3
    assert T.tail_norm_exp == Fraction(-15, 2)


# -- phi twist


def test_phi_on_variable_and_constant(ctx32):
    t = tate_var(ctx32, 1, 9, 0)
    ft = t.phi(0)
    assert list(ft.terms) == [(3,)]
    c = tate_const(ctx32, 1, 9, ctx32.theta())
    assert c.phi(0) == c


def test_phi_ring_hom_and_tau_commute(ctx32):
    rng = random.Random(7007)
    for _ in range(20):
        A = rand_elem(ctx32, rng, 2, 2)
        B = rand_elem(ctx32, rng, 2, 2)
        big = 30
        A = TateElem(ctx32, 2, big, A.terms)
        B = TateElem(ctx32, 2, big, B.terms)
        i = rng.choice([0, 1])
        assert (A * B).phi(i) == A.phi(i) * B.phi(i)
        assert A.tau().phi(i) == A.phi(i).tau()


def test_phi_folds_overcap(ctx32):
    x = TateElem(ctx32, 1, 4, {(2,): ctx32.theta()})
    f = x.phi(0)  # exponent 6 > cap 4
    assert f.terms == {}
    assert f.tail_norm_exp == Fraction(1)


# -- evaluation


@pytest.fixture(scope="module")
def roots21(ctx21):
    spec = ctx21.spec
    f = spec.poly([1, 1, 1])  # theta^2 + theta + 1, irreducible over F_2
    return (roots_in_ext(f, spec)[0],)


def test_ev_constant_and_variable(ctx21, roots21):
    c = ctx21.theta()
    assert tate_const(ctx21, 1, 4, c).ev(roots21) == c
    t = tate_var(ctx21, 1, 4, 0)
    assert t.ev(roots21) == ctx21.from_field(roots21[0])


def test_ev_ring_hom(ctx21, roots21):
    rng = random.Random(7008)
    for _ in range(25):
        A = TateElem(ctx21, 1, 5, rand_elem(ctx21, rng, 1, 2).terms)
        B = TateElem(ctx21, 1, 5, rand_elem(ctx21, rng, 1, 2).terms)
        assert (A + B).ev(roots21) == A.ev(roots21) + B.ev(roots21)
        assert (A * B).ev(roots21) == A.ev(roots21) * B.ev(roots21)


def test_ev_poly_image_matches_field_eval(ctx21, roots21):
    spec = ctx21.spec
    rng = random.Random(7009)
    for _ in range(10):
        a = spec.poly([rng.randrange(2) for _ in range(rng.randrange(1, 5))])
        A = tate_poly_t(ctx21, 1, 8, 0, a)
        want = ctx21.from_field(a.eval(roots21[0]))
        assert A.ev(roots21) == want


def test_ev_tail_limits_precision(ctx21, roots21):
    A = TateElem(ctx21, 1, 4, {(0,): ctx21.one()}, tail_norm_exp=Fraction(-5))
    r = A.ev(roots21)
    assert r.prec == 5  # ram = 1 here
    assert r.coeff_at(0) == ctx21.spec.one


def test_ev_shape_checks(ctx21, ctx32, roots21):
    # one root per variable
    with pytest.raises(ShapeMismatchError):
        tate_var(ctx21, 2, 4, 0).ev(roots21)
    with pytest.raises(ShapeMismatchError):
        tate_var(ctx21, 1, 4, 0).ev(roots21 + roots21)
    # a root from another tower
    with pytest.raises(FieldMismatchError):
        tate_var(ctx32, 1, 4, 0).ev(roots21)


def test_ev_two_variables(ctx21, roots21):
    spec = ctx21.spec
    z = roots21[0]
    t0 = tate_var(ctx21, 2, 4, 0)
    t1 = tate_var(ctx21, 2, 4, 1)
    # t_1 goes to 1, the root of theta + 1
    r = (t0 * t1 + t1).ev((z, spec.one))
    assert r == ctx21.from_field(z * spec.one + spec.one)
    assert not r.is_zero()


# -- specialization t -> theta


def test_specialize_t_minus_theta(ctx32):
    A = tate_t_minus_theta(ctx32, 1, 6, 0)
    r = at_theta(A, 0)
    assert r.s == 0
    assert r.terms == {} and r.tail_norm_exp == NEG_INF


def test_specialize_poly_image_is_embedding(ctx32):
    spec = ctx32.spec
    rng = random.Random(7010)
    for _ in range(10):
        a = spec.poly([rng.randrange(3) for _ in range(rng.randrange(1, 5))])
        A = tate_poly_t(ctx32, 1, 8, 0, a)
        r = at_theta(A, 0)
        assert r.coeff(()) == ctx32.embed_poly(a)


def test_specialize_two_vars_manual(ctx32):
    th = ctx32.theta()
    A = tate_var(ctx32, 2, 6, 0) * tate_var(ctx32, 2, 6, 1) + tate_const(
        ctx32, 2, 6, ctx32.one()
    )
    r = at_theta(A, 0)
    assert r.s == 1
    assert r.coeff((1,)) == th
    assert r.coeff((0,)) == ctx32.one()


def test_specialize_requires_certificate(ctx32):
    A = TateElem(ctx32, 1, 4, {(0,): ctx32.one()}, tail_norm_exp=Fraction(-20))
    with pytest.raises(PrecisionExhaustedError):
        at_theta(A, 0)
    with pytest.raises(PrecisionExhaustedError):
        at_theta(A, 0, decay=(1, Fraction(0)))


def test_specialize_detects_certificate_violation(ctx32):
    bad = TateElem(ctx32, 1, 4, {(3,): ctx32.one()}, tail_norm_exp=Fraction(-20))
    # |coeff| = 1 > q^(0 - 2*3)
    with pytest.raises(PrecisionExhaustedError):
        at_theta(bad, 0, decay=(2, Fraction(0)))


def test_specialize_decay_budget(ctx32):
    ram = ctx32.ram

    def series(cap):
        terms = {(m,): ctx32.u_pow(2 * m * ram) for m in range(cap + 1)}
        return TateElem(ctx32, 1, cap, terms, tail_norm_exp=Fraction(-2 * (cap + 1)))

    r1 = at_theta(series(4), 0, decay=(2, Fraction(0))).coeff(())
    r2 = at_theta(series(7), 0, decay=(2, Fraction(0))).coeff(())
    assert r1.prec == 5 * ram
    assert r2.prec == 8 * ram
    assert r1 == r2.truncate(5 * ram)


def test_embed_vars(ctx32):
    rng = random.Random(7011)
    A = rand_elem(ctx32, rng, 1, 5)
    B = rand_elem(ctx32, rng, 1, 5)
    A2 = A.embed_vars(2, (0,))
    B2 = B.embed_vars(2, (1,))
    prod = A2 * B2
    for ea, ca in A.terms.items():
        for eb, cb in B.terms.items():
            assert prod.coeff((ea[0], eb[0])) == ca * cb
    with pytest.raises(ShapeMismatchError):
        A.embed_vars(2, (3,))


# -- the one-pass product against the pairwise product it replaced


def _mul_reference(a, b):
    """TateElem.__mul__ as one RamLaurent product and one sum per coefficient pair."""
    cap = min(a.tcap, b.tcap)
    out = {}
    fold = NEG_INF
    for ea, ca in a.terms.items():
        na = ca.norm_exp()
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(k > cap for k in e):
                fold = max(fold, na + cb.norm_exp())
                continue
            prod = ca * cb
            prev = out.get(e)
            out[e] = prod if prev is None else prev + prod
    ta, tb = a.tail_norm_exp, b.tail_norm_exp
    tail = max(fold, ta + b.gauss_norm_exp(), tb + a.gauss_norm_exp(), ta + tb)
    return TateElem(a.ctx, a.s, cap, out, tail)


def _assert_same_product(got, want):
    assert list(got.terms) == list(want.terms)
    for e, w in want.terms.items():
        g = got.terms[e]
        assert (g.offset, g.prec) == (w.offset, w.prec), e
        assert g.coeffs.shape == w.coeffs.shape and (g.coeffs == w.coeffs).all(), e
    assert got.tail_norm_exp == want.tail_norm_exp
    assert (got.s, got.tcap) == (want.s, want.tcap)


def _rand_coeff(ctx, rng, kind):
    """Exact, inexact, prime-field or term-free inexact coefficient of assorted
    length and valuation; prime-field ones leave all but one coordinate zero."""
    if kind == "term-free":
        return ctx.zero(rng.randrange(-8, 20))
    spec = ctx.spec
    top = spec.p if kind == "prime-field" else spec.order
    lo = rng.randrange(-8, 6)
    terms = [(lo, spec.from_index(rng.randrange(1, top)))]
    terms += [(lo + k, spec.from_index(rng.randrange(top)))
              for k in range(1, rng.randrange(1, 30))]
    x = ctx.from_terms(terms)
    return x if kind != "inexact" else x.truncate(lo + rng.randrange(1, 35))


def _diff_inputs(ctx, rng, s):
    """Pairs of factors with unequal caps, mixed coefficients, tails and cancellations."""
    kinds = ("exact", "prime-field", "inexact", "term-free")
    for _ in range(12):
        cap_a, cap_b = rng.randrange(1, 7), rng.randrange(1, 7)
        fs = []
        for cap in (cap_a, cap_b):
            terms = {}
            for _ in range(rng.randrange(1, 9)):
                e = tuple(rng.randrange(cap + 1) for _ in range(s))
                terms[e] = _rand_coeff(ctx, rng, rng.choice(kinds))
            tail = rng.choice([NEG_INF, NEG_INF, Fraction(rng.randrange(-20, 4), ctx.ram)])
            fs.append(TateElem(ctx, s, cap, terms, tail))
        yield fs
    # (t + c)(t - c) = t^2 - c^2: the t coefficient is c - c, an exact zero
    # the constructor drops for exact c and a term-free inexact zero it keeps
    # for inexact c; a cap of 1 folds the t^2 pair into the tail
    for kind in ("exact", "inexact"):
        c = _rand_coeff(ctx, rng, kind)
        t = tate_var(ctx, s, 4, 0)
        for cap in (4, 1):
            a = TateElem(ctx, s, cap, (t + tate_const(ctx, s, 4, c)).terms)
            yield a, t - tate_const(ctx, s, 4, c)


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2)])
@pytest.mark.parametrize("s", [1, 2])
def test_differential_mul(p, e, d, s):
    ctx = Completion(p, e, d)
    rng = random.Random(f"tate-mul:{p}:{e}:{d}:{s}")
    seen = {"dropped": 0, "inexact zero": 0, "fold": 0, "tail": 0}
    for a, b in _diff_inputs(ctx, rng, s):
        for x, y in ((a, b), (b, a)):
            got, want = x * y, _mul_reference(x, y)
            _assert_same_product(got, want)
            raw = {tuple(i + j for i, j in zip(ea, eb))
                   for ea in x.terms for eb in y.terms}
            cap = min(x.tcap, y.tcap)
            seen["dropped"] += any(all(k <= cap for k in r) and r not in got.terms for r in raw)
            seen["inexact zero"] += any(c.is_zero() for c in got.terms.values())
            seen["fold"] += any(any(k > cap for k in r) for r in raw)
            seen["tail"] += x.tail_norm_exp != NEG_INF
    assert all(seen.values()), seen


_TERM = st.tuples(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),  # exponent, cut to s slots
    st.integers(-6, 4),  # valuation
    st.lists(st.integers(0, 63), min_size=2, max_size=12),  # coefficient indices
    st.one_of(st.none(), st.integers(1, 11)),  # relative truncation, None = exact
)


@settings(max_examples=60, deadline=None)
@given(
    tower=st.sampled_from([(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2)]),
    s=st.integers(1, 2),
    caps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    xs=st.lists(_TERM, min_size=1, max_size=6),
    ys=st.lists(_TERM, min_size=1, max_size=6),
)
def test_tate_truncation_soundness(tower, s, caps, xs, ys):
    """The product of truncated elements agrees with the exact product in every
    coefficient to that coefficient's claimed prec, and its tail bound covers
    every exact term past the cap."""
    ctx = Completion(*tower)
    spec = ctx.spec

    def pair(terms, cap):
        exact, cut = {}, {}
        for e, lo, ids, rel in terms:
            e = e[:s]
            cs = [spec.from_index(i % spec.order) for i in ids]
            cs = [c if not c.is_zero() or 0 < k < len(cs) - 1 else spec.one
                  for k, c in enumerate(cs)]
            c = ctx.from_terms([(lo + k, c) for k, c in enumerate(cs)])
            exact[e] = c
            # a truncation drops at least the last, nonzero, term
            cut[e] = c if rel is None else c.truncate(lo + min(rel, len(cs) - 1))
        # the exact factor keeps every term; the truncated one keeps those up
        # to its cap and folds the rest into its tail
        return TateElem(ctx, s, 12, exact), TateElem(ctx, s, cap, cut)

    (X, Xt), (Y, Yt) = pair(xs, caps[0]), pair(ys, caps[1])
    P, E = Xt * Yt, X * Y
    assert P.tcap == min(caps)
    for e, c in E.terms.items():
        if all(k <= P.tcap for k in e):
            got = P.coeff(e)
            assert (got - c).is_zero(), e
        else:
            assert c.norm_exp() <= P.tail_norm_exp, e
    assert all(e in E.terms or c.is_zero() for e, c in P.terms.items())
