"""Tests for the truncated Tate-algebra layer: arithmetic, twists, evaluation."""

import contextlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz import laurent
from carlitz.errors import (
    EmptyPrecisionError,
    FieldMismatchError,
    PrecisionExhaustedError,
    ShapeMismatchError,
    SizeLimitError,
)
from carlitz.fields import roots_in_ext
from carlitz.functions import (L_multi, agf_f, chi_t, default_budget, omega, omega_inv,
                               papanikolas_L, psi_family)
from carlitz.laurent import NEG_INF, PREC_EXACT, Completion, RamLaurent, sample_z
from carlitz.tate import (
    TateElem,
    tate_const,
    tate_t_minus_theta,
    tate_var,
    tate_zero,
)

from carlitz.verify import _levels

from oracles import DictTate, at_theta, frobenius, tate_poly_t, terms, to_pairs


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
    assert z.keys == () and z.tail_norm_exp == NEG_INF
    assert z.gauss_norm_exp() == NEG_INF
    assert z.prec_floor() == PREC_EXACT
    c = tate_const(ctx32, 2, 6, ctx32.zero())
    assert c.keys == ()
    th = tate_const(ctx32, 1, 6, ctx32.theta())
    assert th.coeff((0,)) == ctx32.theta()
    assert th.coeff((3,)).is_exact_zero()


def test_constructor_folds_overcap(ctx32):
    x = TateElem(ctx32, 1, 3, {(5,): ctx32.theta()})
    assert x.keys == ()
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
    assert z.keys == () and z.tail_norm_exp == NEG_INF


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
        assert (A - A).keys == ()


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
        A = TateElem(ctx32, 2, 8, terms(rand_elem(ctx32, rng, 2, 4)))
        B = TateElem(ctx32, 2, 8, terms(rand_elem(ctx32, rng, 2, 4)))
        P = A * B
        assert P.tail_norm_exp == NEG_INF
        if P.keys:
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
    assert p.keys == ()
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


def _qpow_terms(x, k):
    """x^(q^k) term by term: c u^v goes to frobenius(c, k) u^(v q^k), and an
    inexact precision scales by q^k."""
    qk = x.ctx.q**k
    prec = x.prec if x.is_exact() else x.prec * qk
    return x.ctx.from_terms([(v * qk, frobenius(c, k)) for v, c in to_pairs(x)], prec)


@pytest.mark.parametrize("tower", [(2, 2, 2), (3, 1, 2)])
def test_differential_qpow_rows(monkeypatch, tower):
    """RamLaurent.qpow(k) for k = 0, 1, 2 and TateElem.tau against the
    term-by-term Frobenius, on exact, inexact and term-free inputs; both go
    through Completion.qpow_rows, which forms frob_matrix^k once per k."""
    powers = []
    mat_pow = laurent._mat_pow
    monkeypatch.setattr(laurent, "_mat_pow", lambda *a: powers.append(a[1]) or mat_pow(*a))
    ctx = Completion(*tower)
    rng = random.Random(4242)
    for _ in range(3):
        xs = [rand_scalar(ctx, rng, exact=True), rand_scalar(ctx, rng, exact=False),
              ctx.zero(rng.randrange(-5, 20)), ctx.zero()]
        for x in xs:
            for k in (0, 1, 2):
                assert x.qpow(k) == _qpow_terms(x, k)
        A = TateElem(ctx, 2, 3, {(0, 1): xs[0], (2, 0): xs[1], (1, 1): xs[2], (3, 3): xs[0]},
                     tail_norm_exp=Fraction(-7, 2))
        want = TateElem(ctx, 2, 3, {e: _qpow_terms(A.coeff(e), 1) for e in A.keys},
                        tail_norm_exp=A.tail_norm_exp * ctx.q)
        assert A.tau() == want
    assert sorted(powers) == [0, 1, 2]
    assert sorted(key for key in ctx.cache if key[0] == "frob") == [("frob", k) for k in (0, 1, 2)]


def test_qpow_rows_refuses_long_blocks(monkeypatch):
    """RamLaurent.qpow and TateElem.tau refuse a dilated block past _MAX_LEN
    before allocating it (the constructor's own check says "series block")."""
    ctx = Completion(3, 1, 1)
    x = ctx.from_terms([(0, ctx.spec.one), (20, ctx.spec.one)])
    monkeypatch.setattr(laurent, "_MAX_LEN", 40)
    assert x.qpow(0) == x
    with pytest.raises(SizeLimitError, match="qpow block too long"):
        x.qpow(1)
    with pytest.raises(SizeLimitError, match="qpow block too long"):
        TateElem(ctx, 1, 2, {(0,): x}).tau()


# -- phi twist


def test_phi_on_variable_and_constant(ctx32):
    t = tate_var(ctx32, 1, 9, 0)
    ft = t.phi(0)
    assert list(ft.keys) == [(3,)]
    c = tate_const(ctx32, 1, 9, ctx32.theta())
    assert c.phi(0) == c


def test_phi_ring_hom_and_tau_commute(ctx32):
    rng = random.Random(7007)
    for _ in range(20):
        A = rand_elem(ctx32, rng, 2, 2)
        B = rand_elem(ctx32, rng, 2, 2)
        big = 30
        A = TateElem(ctx32, 2, big, terms(A))
        B = TateElem(ctx32, 2, big, terms(B))
        i = rng.choice([0, 1])
        assert (A * B).phi(i) == A.phi(i) * B.phi(i)
        assert A.tau().phi(i) == A.phi(i).tau()


def test_phi_folds_overcap(ctx32):
    x = TateElem(ctx32, 1, 4, {(2,): ctx32.theta()})
    f = x.phi(0)  # exponent 6 > cap 4
    assert f.keys == ()
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
        A = TateElem(ctx21, 1, 5, terms(rand_elem(ctx21, rng, 1, 2)))
        B = TateElem(ctx21, 1, 5, terms(rand_elem(ctx21, rng, 1, 2)))
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
    assert r.keys == () and r.tail_norm_exp == NEG_INF


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
    for ea, ca in terms(A).items():
        for eb, cb in terms(B).items():
            assert prod.coeff((ea[0], eb[0])) == ca * cb
    with pytest.raises(ShapeMismatchError):
        A.embed_vars(2, (3,))


# -- the one-pass product against the pairwise product it replaced, which
# oracles.DictTate keeps: one RamLaurent product and one sum per pair


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
            cs = {}
            for _ in range(rng.randrange(1, 9)):
                e = tuple(rng.randrange(cap + 1) for _ in range(s))
                cs[e] = _rand_coeff(ctx, rng, rng.choice(kinds))
            tail = rng.choice([NEG_INF, NEG_INF, Fraction(rng.randrange(-20, 4), ctx.ram)])
            fs.append(TateElem(ctx, s, cap, cs, tail))
        yield fs
    # (t + c)(t - c) = t^2 - c^2: the t coefficient is c - c, an exact zero
    # the constructor drops for exact c and a term-free inexact zero it keeps
    # for inexact c; a cap of 1 folds the t^2 pair into the tail
    for kind in ("exact", "inexact"):
        c = _rand_coeff(ctx, rng, kind)
        t = tate_var(ctx, s, 4, 0)
        for cap in (4, 1):
            a = TateElem(ctx, s, cap, terms(t + tate_const(ctx, s, 4, c)))
            yield a, t - tate_const(ctx, s, 4, c)


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2)])
@pytest.mark.parametrize("s", [1, 2])
def test_differential_mul(p, e, d, s):
    ctx = Completion(p, e, d)
    rng = random.Random(f"tate-mul:{p}:{e}:{d}:{s}")
    seen = {"dropped": 0, "inexact zero": 0, "fold": 0, "tail": 0}
    for a, b in _diff_inputs(ctx, rng, s):
        for x, y in ((a, b), (b, a)):
            got, want = x * y, DictTate.of(x) * DictTate.of(y)
            _assert_agrees(got, want)
            raw = {tuple(i + j for i, j in zip(ea, eb))
                   for ea in x.keys for eb in y.keys}
            cap = min(x.tcap, y.tcap)
            seen["dropped"] += any(all(k <= cap for k in r) and r not in got.keys for r in raw)
            seen["inexact zero"] += any(c.is_zero() for c in terms(got).values())
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
    for e, c in terms(E).items():
        if all(k <= P.tcap for k in e):
            got = P.coeff(e)
            assert (got - c).is_zero(), e
        else:
            assert c.norm_exp() <= P.tail_norm_exp, e
    assert all(e in E.keys or c.is_zero() for e, c in terms(P).items())


# -- the frame against the dict-of-RamLaurent reference

# q in {2, 3, 4, 5, 7}, at m = 1 and m = 2 (q = 4 has m = 2 only)
FRAME_TOWERS = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 1),
                (5, 1, 1), (5, 1, 2), (7, 1, 1), (7, 1, 2)]
_COMPLETIONS: dict = {}
_KINDS = ("exact", "truncated", "term-free", "exact zero")


def _tower_ctx(tower):
    if tower not in _COMPLETIONS:
        _COMPLETIONS[tower] = Completion(*tower)
    return _COMPLETIONS[tower]


def _draw_coeff(data, ctx, kind):
    """A coefficient of the given kind: exact, truncated (possibly to no
    term), term-free inexact or the exact zero."""
    if kind == "exact zero":
        return ctx.zero()
    if kind == "term-free":
        return ctx.zero(data.draw(st.integers(-10, 30)))
    spec = ctx.spec
    lo = data.draw(st.integers(-8, 8))
    ids = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=12))
    x = ctx.from_terms([(lo + k, spec.from_index(i or (k == 0))) for k, i in enumerate(ids)])
    return x if kind == "exact" else x.truncate(lo + data.draw(st.integers(0, 14)))


def _draw_elem(data, ctx, s, tcap):
    """(TateElem, DictTate) from one dict: keys up to tcap + 2, so some pass
    the cap, coefficients of every kind, with or without a tail."""
    cs = {}
    for _ in range(data.draw(st.integers(0, 5))):
        e = tuple(data.draw(st.integers(0, tcap + 2)) for _ in range(s))
        cs[e] = _draw_coeff(data, ctx, data.draw(st.sampled_from(_KINDS)))
    tail = data.draw(st.one_of(st.just(NEG_INF),
                               st.integers(-30, 6).map(lambda n: Fraction(n, ctx.ram))))
    return TateElem(ctx, s, tcap, cs, tail), DictTate(ctx, s, tcap, cs, tail)


def _assert_agrees(got, want):
    """Key order, every coefficient through coeff, precisions, the tail and
    its type, the norm, prec_floor and verify._levels."""
    assert (got.s, got.tcap) == (want.s, want.tcap)
    assert list(got.keys) == list(want.terms)
    for e, c in want.terms.items():
        assert got.coeff(e) == c, e
    assert got.precs.tolist() == [c.prec for c in want.terms.values()]
    assert got.tail_norm_exp == want.tail_norm_exp
    assert type(got.tail_norm_exp) is type(want.tail_norm_exp)
    assert got.gauss_norm_exp() == want.gauss_norm_exp()
    assert got.prec_floor() == want.prec_floor()
    assert _levels(got) == want.levels()


def _assert_frame(x):
    """The frame invariants of the tate module docstring."""
    K, R, m = x.block.shape
    assert x.block.dtype == np.int8 and m == x.ctx.spec.m
    assert len(x.keys) == len(set(x.keys)) == K == len(x.precs) == len(x.vals) == len(x.ends)
    assert all(len(e) == x.s and 0 <= min(e, default=0) and max(e, default=0) <= x.tcap
               for e in x.keys)
    assert ((x.block >= 0) & (x.block < x.ctx.p)).all()
    assert (x.precs <= PREC_EXACT).all()
    live = x.block.any(axis=2)
    assert not (live & (np.arange(x.lo, x.lo + R) >= x.precs[:, None])).any()
    has = live.any(axis=1)
    assert (has | (x.precs < PREC_EXACT)).all()  # no exact-zero key
    if R:
        assert live[:, 0].any() and live[:, -1].any()  # trimmed
    else:
        assert x.lo == 0
    for k in range(K):
        rows = np.flatnonzero(live[k])
        span = (x.lo + rows[0], x.lo + rows[-1] + 1) if has[k] else (x.precs[k], x.precs[k])
        assert (x.vals[k], x.ends[k]) == span, k


@contextlib.contextmanager
def _frames_built():
    """Every frame built inside, as (the per-coefficient reference from its
    buffer, the normalized frame): one RamLaurent per key, then the dict
    constructor, as the Tate layer did before frames."""
    seen, orig = [], TateElem.frame.__func__

    def spy(cls, ctx, s, tcap, keys, lo, block, precs, tail_norm_exp=NEG_INF):
        keys = tuple(keys)
        P = np.broadcast_to(np.asarray(precs), (len(keys),))
        ref = DictTate(ctx, s, tcap, {e: RamLaurent(ctx, lo, block[k], int(P[k]))
                                      for k, e in enumerate(keys)}, tail_norm_exp)
        out = orig(cls, ctx, s, tcap, keys, lo, block, precs, tail_norm_exp)
        seen.append((ref, out))
        return out

    TateElem.frame = classmethod(spy)
    try:
        yield seen
    finally:
        TateElem.frame = classmethod(orig)


def _ops(data, ctx, s, caps):
    """Every TateElem operation on drawn elements, with its reference result:
    (name, got, want) triples, ev and == as values."""
    (A, Ar), (B, Br) = (_draw_elem(data, ctx, s, cap) for cap in caps)
    b = _draw_coeff(data, ctx, data.draw(st.sampled_from(_KINDS)))
    c = ctx.spec.from_index(data.draw(st.integers(0, ctx.spec.order - 1)))
    roots = tuple(ctx.spec.from_index(data.draw(st.integers(0, ctx.spec.order - 1)))
                  for _ in range(s))
    i = data.draw(st.integers(0, s - 1))
    pos = tuple(data.draw(st.permutations(range(s + 1)))[:s])
    return [("A", A, Ar), ("B", B, Br), ("+", A + B, Ar + Br), ("-", A - B, Ar - Br),
            ("neg", -A, -Ar), ("*", A * B, Ar * Br), ("scalar_mul", A.scalar_mul(b), Ar.scalar_mul(b)),
            ("* scalar", A * b, Ar * b), ("* field", A * c, Ar * c), ("tau", A.tau(), Ar.tau()),
            ("phi", A.phi(i), Ar.phi(i)), ("embed_vars", A.embed_vars(s + 1, pos), Ar.embed_vars(s + 1, pos)),
            ("ev", A.ev(roots), Ar.ev(roots)), ("==", A == B, Ar == Br),
            ("== self", A == TateElem(ctx, s, A.tcap, terms(A), A.tail_norm_exp), True),
            ("+ commutes", A + B == B + A, True)]


def _producers(tower, tcap, seed, prec):
    """Every producer that hands a buffer to TateElem.frame, on a fresh
    completion so that no cached frame is skipped: (name, got, want) with
    chi_t against the product it stands for."""
    ctx = Completion(*tower)
    B = default_budget(ctx, prec)
    rng = random.Random(seed)
    z, w = sample_z(ctx, rng, "small"), sample_z(ctx, rng, "unit")
    inv, F = omega_inv(ctx, tcap, B), agf_f(ctx, z, tcap, B)
    chi = chi_t(ctx, z, tcap, B)
    out = [("omega", omega(ctx, tcap, B), None), ("omega_inv", inv, None), ("agf_f", F, None),
           ("chi_t", chi, DictTate.of(inv) * DictTate.of(F)),
           ("papanikolas_L", papanikolas_L(ctx, z, tcap, B), None)]
    for s in (1, 2):
        for k, x in enumerate(psi_family(ctx, s, w, 3, tcap, B, [(1,) * s, (0,) * s, (1,) + (0,) * (s - 1)])):
            out.append((f"psi_family s={s} #{k}", x, None))
        out.append((f"L_multi s={s}", L_multi(ctx, s, 1, 3, tcap, B), None))
    return out


_OPS_ARGS = dict(data=st.data(), tower=st.sampled_from(FRAME_TOWERS), s=st.integers(1, 2),
                 caps=st.tuples(st.integers(0, 8), st.integers(0, 8)))
_PRODUCER_ARGS = dict(tower=st.sampled_from(FRAME_TOWERS), tcap=st.integers(0, 8),
                      seed=st.integers(0, 2**16), prec=st.integers(4, 24))


@settings(max_examples=200, deadline=None)
@given(**_OPS_ARGS)
def test_differential_frame_ops_property(data, tower, s, caps):
    """Every operation on frames agrees with the dict-of-RamLaurent reference."""
    for name, got, want in _ops(data, _tower_ctx(tower), s, caps):
        if isinstance(got, TateElem):
            _assert_agrees(got, want)
        else:
            assert got == want, name


@settings(max_examples=25, deadline=None)
@given(**_PRODUCER_ARGS)
def test_differential_frame_producers_property(tower, tcap, seed, prec):
    """Every frame a producer builds, intermediate ones too, equals one
    RamLaurent per key from the same buffer through the dict constructor;
    chi_t equals the product omega_inv * agf_f."""
    with _frames_built() as seen:
        outs = _producers(tower, tcap, seed, prec)
    assert len(seen) >= len(outs)
    for ref, got in seen:
        _assert_agrees(got, ref)
    for name, got, want in outs:
        if want is not None:
            _assert_agrees(got, want)


@settings(max_examples=100, deadline=None)
@given(**_OPS_ARGS, **{k: v for k, v in _PRODUCER_ARGS.items() if k != "tower"})
def test_frame_invariants_property(data, tower, s, caps, tcap, seed, prec):
    """Every frame built by an operation or a producer is normalized."""
    with _frames_built() as seen:
        _ops(data, _tower_ctx(tower), s, caps)
        if data.draw(st.booleans()):
            _producers(tower, tcap, seed, prec)
    assert seen
    for _, x in seen:
        _assert_frame(x)
