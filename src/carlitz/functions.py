"""Special functions of the Carlitz module with certified truncation error.

Everything returns either a RamLaurent or a TateElem whose precision and
tail bounds are sound for the requested budget; each series documents its
own stopping rule and records the derived truncation index in the budget.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    AlphaTooLargeError,
    ConfigError,
    InvariantError,
    LatticePoleError,
    PrecisionExhaustedError,
    ShapeMismatchError,
    SingularSystemError,
)
from .fields import GFPoly, carlitz_dl, degree_guard, enumerate_A
from .laurent import (NEG_INF, PREC_EXACT, Completion, RamLaurent, batch_mul, inv_extent,
                      stack_inv)
from .tate import TateElem, mul_profile, tate_zero


@dataclass
class SeriesBudget:
    """Requested absolute precision plus working padding.

    pad absorbs the positive-exponent excursions of intermediate terms and
    the fixed valuation shifts (period factors, lattice inverses); series
    with input-dependent excursions compute an extra slack on top of the
    pad.  n_terms records the truncation index each operation derived.
    """

    prec: int
    pad: int
    n_terms: dict = field(default_factory=dict)

    @property
    def wp(self) -> int:
        return self.prec + self.pad


def default_budget(ctx: Completion, prec: int) -> SeriesBudget:
    """Budget for prec with working padding 4 * ram + 2q + 8, where ram is
    the ramification index of the completion."""
    return SeriesBudget(prec, 4 * ctx.ram + 2 * ctx.q + 8)


# -- exact constants in A


def carlitz_constants(ctx: Completion, i: int):
    """(d_i, l_i): the degree-q^i product constants, exact in F_q[theta]
    (fields.carlitz_dl), memoised on the completion."""
    key = ("const", i)
    if key not in ctx.cache:
        ctx.cache[key] = carlitz_dl(ctx.spec, i)
    return ctx.cache[key]


def _inv_d(ctx: Completion, i: int, rel: int) -> RamLaurent:
    """1/d_i to relative precision rel (cached in coarse precision buckets)."""
    rel_b = ((rel + 31) // 32) * 32
    key = ("inv_d", i, rel_b)
    if key not in ctx.cache:
        d_i, _ = carlitz_constants(ctx, i)
        ctx.cache[key] = ctx.embed_poly(d_i).inv(rel_b)
    return ctx.cache[key]


def _term(ctx: Completion, z: RamLaurent, i: int, wp: int, rel: int) -> RamLaurent:
    """(z^(q^i) / d_i).truncate(wp), with z truncated before it is dilated.

    Let b = 1/d_i, v its valuation, c = z.qpow(i) and K = ceil((wp - v) / q^i).
    qpow commutes with truncation, z.truncate(K).qpow(i) == c.truncate(q^i K)
    (RamLaurent.qpow), and q^i K >= wp - v.  The lemma below at P = wp turns
    both (c.truncate(q^i K) * b) and (c * b), truncated at wp, into
    (c.truncate(wp - v) * b).truncate(wp).  So only the rows of z below K
    reach the result, and the block qpow allocates has at most
    (K - v(z) - 1) q^i + 1 rows, not the whole dilation of z.

    Lemma (truncate before multiply).  For series c and b, an integer P and
    v_b = b.valuation(), (c.truncate(P - v_b) * b).truncate(P) ==
    (c * b).truncate(P), for exponents far below the PREC_EXACT sentinel.

    Proof.  Let c' = c.truncate(P - v_b), so p_c' = min(p_c, P - v_b).  If b
    is the exact zero both products are.  If c is, c' is term-free with
    valuation P - v_b, and c' * b is term-free with precision
    min(P, p_b + P - v_b) = P, because p_b >= v_b; so is (c * b).truncate(P).
    Otherwise: the rows.  A row of c at exponent i >= P - v_b meets only rows
    of b at exponents >= v_b, so it reaches only exponents >= P, and below
    P - v_b the rows of c and c' agree; so both products have the same rows
    below P.  The precisions, by mul_prec, are min(P, p_c' + v_b,
    p_b + v_c', PREC_EXACT) on the left and min(P, p_c + v_b, p_b + v_c,
    PREC_EXACT) on the right (PREC_EXACT alone when c and b are exact, and
    then the left one is P as well).  If c' keeps a term, v_c' = v_c and
    p_c' + v_b = min(p_c + v_b, P), so they agree.  If c' is term-free and
    p_c' = p_c, c is term-free too and the same holds.  Else v_c >= P - v_b
    and p_c > P - v_b; the left is P since p_b + v_c' = p_b + P - v_b >= P,
    and the right is P since p_c + v_b > P and p_b + v_c >= P.  The
    RamLaurent constructor trims both to the rows below that common
    precision, so they are equal.
    """
    inv = _inv_d(ctx, i, rel)
    return (z.truncate(-((inv.valuation() - wp) // ctx.q**i)).qpow(i) * inv).truncate(wp)


# -- period


def pi_tilde(ctx: Completion, budget: SeriesBudget) -> RamLaurent:
    """Fundamental period: -lambda^q * prod_{i>=1} (1 - theta^{1-q^i})^{-1}.

    Factor i differs from 1 at valuation (q^i - 1) * ram; factors beyond the
    working precision are omitted.  Lead exponent is -q with coefficient -1.
    """
    wp = budget.wp
    key = ("pi", wp)
    if key not in ctx.cache:
        th_inv = ctx.theta().inv(1)  # a single exact term: its exact inverse
        prod = ctx.one()
        i = 1
        while ctx.ram * (ctx.q**i - 1) < wp:
            x = ctx.theta() * th_inv ** (ctx.q**i)  # theta^{1-q^i}, exact monomial
            prod = (prod * (ctx.one() - x)).truncate(wp)
            i += 1
        lam_q = ctx.lam() ** ctx.q
        ctx.cache[key] = -(lam_q * prod.inv(wp)), i - 1
    value, budget.n_terms["pi_tilde"] = ctx.cache[key]
    return value


# -- exponential family


def _exp_indices(ctx: Completion, v: int, wp: int):
    """Kept term indices and positive-exponent slack for sum z^{q^i}/d_i,
    term i of valuation q^i (v + i ram).  A kept term divides by D_i, so it
    is refused by D_i's degree guard before any term is formed."""
    keep = []
    slack = 0
    i = 0
    while True:
        tv = ctx.q**i * (v + i * ctx.ram)
        if tv >= wp:
            break
        degree_guard(ctx.q, i)
        keep.append(i)
        slack = max(slack, -tv)
        i += 1
    return keep, slack


def carlitz_exp(ctx: Completion, z: RamLaurent, budget: SeriesBudget) -> RamLaurent:
    """sum_i z^{q^i}/d_i, truncated when the term valuation clears the budget."""
    wp = budget.wp
    if z.is_exact_zero():
        return ctx.zero()
    keep, slack = _exp_indices(ctx, z.valuation(), wp)
    budget.n_terms["carlitz_exp"] = len(keep)
    acc = ctx.zero(wp)
    for i in keep:
        acc = acc + _term(ctx, z, i, wp, wp + slack)
    if acc.prec < budget.prec:
        raise PrecisionExhaustedError(
            f"exponential delivered precision {acc.prec} < target {budget.prec}")
    return acc


def carlitz_e(ctx: Completion, z: RamLaurent, budget: SeriesBudget) -> RamLaurent:
    """exp at the period multiple: carlitz_exp(pi_tilde * z)."""
    wp = budget.wp
    if z.is_exact_zero():
        return ctx.zero()
    v_pi = -ctx.ram * ctx.q // (ctx.q - 1)
    vw = z.valuation() + v_pi
    _, slack = _exp_indices(ctx, vw, wp)
    need = wp + slack + ctx.q + max(0, -z.valuation())
    pi = pi_tilde(ctx, SeriesBudget(need, 0))
    return carlitz_exp(ctx, pi * z, budget)


def u_val(ctx: Completion, z: RamLaurent, budget: SeriesBudget) -> RamLaurent:
    """1/e_C(z); requires e_C(z) nonzero at working precision."""
    e = carlitz_e(ctx, z, budget)
    if e.is_zero():
        raise LatticePoleError(f"e_C(z) vanishes to precision {e.prec}")
    return e.inv(budget.wp)


def u_m_val(ctx: Completion, z: RamLaurent, m: GFPoly, budget: SeriesBudget) -> RamLaurent:
    """1/(m * e_C(z/m)) for monic m: the conductor-m uniformizer."""
    wp = budget.wp
    emb = ctx.embed_poly(m)
    zm = z * emb.inv(wp + max(0, -z.valuation()) + 2 * m.degree * ctx.ram)
    e = carlitz_e(ctx, zm, budget)
    denom = emb * e
    if denom.is_zero():
        raise LatticePoleError(f"m * e_C(z/m) vanishes to precision {denom.prec}")
    return denom.inv(wp)


# -- omega and the generating function


def _geometric_rows(ctx: Completion, D: np.ndarray, rec: np.ndarray, b: int):
    """Multiply D by 1/(1 - t theta^(-b)) in place: the one geometric kernel.

    D (cap + 1, R, m) int64 holds every t-coefficient, row r of each D[e] at
    u^(lo + r) for one lo, and rec[e] is the precision of D[e].  The t^e
    coefficient of the product is D[e] + theta^(-b) times its t^(e-1)
    coefficient, and theta^(-b) = (-1)^b u^(b ram): a shift by b ram rows
    and a sign per step, rows past R dropped, then one reduction mod p.
    rec[e] becomes the least rec[ea] + (e - ea) b ram over ea <= e.
    """
    s, R = b * ctx.ram, D.shape[1]
    combine = np.subtract if b % 2 else np.add
    for e in range(1, D.shape[0] if s < R else 0):
        combine(D[e, s:], D[e - 1, : R - s], out=D[e, s:])
    np.remainder(D, ctx.p, out=D)
    steps = s * np.arange(len(rec))
    rec[:] = np.minimum.accumulate(rec - steps) + steps


def omega(ctx: Completion, tcap: int, budget: SeriesBudget) -> TateElem:
    """lambda * prod_{i>=0} (1 - t/theta^{q^i})^{-1} to degree tcap.

    Factor i is _geometric_rows with b = q^i on one buffer of the rows below
    wp, O(tcap) shifts each.  It first moves a coefficient at u^(ram q^i -
    1), the valuation of lambda t/theta^(q^i), so the factors with ram q^i
    <= wp are applied and the omitted ones move no row below wp.  Tail: the
    product rule (tate.mul_profile) with factor i's series, of tail -(tcap+1)
    q^i and Gauss norm exponent 0, gives max(fold, tail, gauss - (tcap+1)
    q^i, tail - (tcap+1) q^i), where gauss = 1/(q-1) is the norm of the t^0
    coefficient lambda.  After factor 0 the t^e coefficient has valuation ram
    e - 1 (its cheapest monomial lambda theta^(-e) comes from factor 0
    alone), so factor 0 gives 1/(q-1) - (tcap+1), and for i >= 1 the fold,
    from the least ram e - 1 + (tcap+1-e) q^i ram over 1 <= e <= tcap, is
    at most 1/(q-1) - tcap - q^i, and the other terms are smaller.
    """
    wp = budget.wp
    key = ("omega", tcap, wp)
    if key not in ctx.cache:
        D = np.zeros((tcap + 1, max(wp + 1, 1), ctx.spec.m), dtype=np.int64)
        D[0, 0] = ctx.lam().coeffs[0]  # row r at u^(r - 1)
        rec = np.full(tcap + 1, PREC_EXACT)
        i = 0
        while ctx.ram * ctx.q**i <= wp:
            _geometric_rows(ctx, D, rec, ctx.q**i)
            i += 1
        tail = Fraction(1, ctx.q - 1) - (tcap + 1) if i else NEG_INF
        out = {(e,): RamLaurent(ctx, -1, D[e], min(int(rec[e]), wp))
               for e in range(tcap + 1 if i else 1)}  # no factor: lambda alone
        ctx.cache[key] = TateElem(ctx, 1, tcap, out, tail), i
    value, budget.n_terms["omega"] = ctx.cache[key]
    return value


def agf_f(ctx: Completion, z: RamLaurent, tcap: int, budget: SeriesBudget) -> TateElem:
    """Generating function sum_n (pi z)^{q^n} / ((theta^{q^n} - t) d_n).

    pi has valuation -q and 1/(theta^{q^n} - t) leads with theta^(-q^n), of
    valuation q^n ram, so term n has valuation q^n (v(z) - 1 + n ram): that
    of the exponential's term n at v = v(z) - 1, and _exp_indices there gives
    the kept indices and the slack.

    Closed form.  Term n is s_n = (pi z)^{q^n} / d_n (_term) times
    1/(theta^{q^n} - t) = sum_e t^e theta^(-(e+1) q^n), and theta^(-(e+1)
    q^n) = (-1)^(e+1) u^((e+1) q^n ram): q^n is odd for odd q, and signs
    vanish in characteristic 2.  So the t^e coefficient of the sum is
    (-1)^(e+1) sum_n s_n u^((e+1) q^n ram), known below P[e], the least
    prec(s_n) + (e+1) q^n ram (finite: _term truncates s_n at wp).  One int64
    buffer, row r of D[e] at u^(lo + (e+1) ram + r) with lo the least offset
    of the s_n, takes every kept n at the rows below P[e] and is reduced mod
    p once.  These are the rows and precisions of the capped products of
    each s_n with its geometric series, summed; the tail is the largest tail
    of those products, -(tcap+2) q^n + log_q|s_n| = -((tcap+2) q^n ram +
    v(s_n))/ram, as s_n is never the exact zero.
    """
    wp = budget.wp
    q, ram, m = ctx.q, ctx.ram, ctx.spec.m
    if z.is_exact_zero():
        return tate_zero(ctx, 1, tcap)
    keep, slack = _exp_indices(ctx, z.valuation() - 1, wp)
    budget.n_terms["agf_f"] = len(keep)
    pi = pi_tilde(ctx, SeriesBudget(wp + slack + q + max(0, -z.valuation()), 0))
    w = pi * z
    terms = [(q**n * ram, _term(ctx, w, n, wp, wp + slack)) for n in keep]
    if not terms:
        return tate_zero(ctx, 1, tcap)
    tail = Fraction(max(-(tcap + 2) * st - s.valuation() for st, s in terms), ram)
    e1 = np.arange(1, tcap + 2)
    prec = np.minimum.reduce([s.prec + e1 * st for st, s in terms])
    base = min((s.offset for _, s in terms if s.coeffs.shape[0]), default=0) + e1 * ram
    D = np.zeros((tcap + 1, max(int((prec - base).max()), 0), m), dtype=np.int64)
    for st, s in terms:
        at = s.offset + e1 * st  # u-exponent of the first row of s_n at t^e
        e, r = np.nonzero(np.arange(s.coeffs.shape[0]) < (prec - at)[:, None])
        D[e, (at - base)[e] + r] += s.coeffs[r]
    D[::2] *= -1  # the sign (-1)^(e+1)
    D = (D % ctx.p).astype(np.int8)
    out = {(e,): RamLaurent(ctx, int(base[e]), D[e], prec[e]) for e in range(tcap + 1)}
    return TateElem(ctx, 1, tcap, out, tail)


def _omega_inv_factors(ctx: Completion, lo: int, top: int) -> int:
    """The least I with ram * q^I + lo >= top: the number of linear factors
    (1 - t/theta^(q^i)) of omega^{-1} that move rows from u^lo below top."""
    i = 0
    while ctx.ram * ctx.q**i + lo < top:
        i += 1
    return i


def _apply_omega_inv_factors(ctx: Completion, D: np.ndarray, rec: np.ndarray,
                             lo: int, top: int) -> np.ndarray:
    """Multiply D by the first _omega_inv_factors(ctx, lo, top) linear
    factors of omega^{-1}, in place, and return how far each row is fixed.

    D (cap + 1, R, m) is an int64 buffer with every t-coefficient, row r of
    D[e] at u^(lo + r), and rec[e] the precision of D[e].  theta = -u^(-ram),
    so theta^(-b) = (-1)^b u^(b*ram), and the factor with b = q^i is D[e] -=
    theta^(-b) D[e-1], that is D[e] += u^(b*ram) D[e-1]: b is odd for odd q,
    and the sign is void in characteristic 2.  So each factor is one shift by
    b*ram rows (rows past R are dropped), and rec[e] becomes min(rec[e],
    rec[e-1] + b*ram).  Every factor has integral coefficients, so the
    omitted ones (i >= I) move D only at rows >= ram * q^I + lo; the result
    is min(rec[e], ram * q^I + lo).
    """
    n = _omega_inv_factors(ctx, lo, top)
    for i in range(n):
        shift = ctx.ram * ctx.q**i
        D[1:, shift:] += D[:-1, : max(D.shape[1] - shift, 0)]
        rec[1:] = np.minimum(rec[1:], rec[:-1] + shift)
    return np.minimum(rec, ctx.ram * ctx.q**n + lo)


def omega_inv(ctx: Completion, tcap: int, budget: SeriesBudget) -> TateElem:
    """omega^{-1} = lambda^{-1} * prod_{i>=0} (1 - t/theta^(q^i)) to degree
    tcap, from its linear factors, cached per (tcap, wp).

    lambda^{-1} = u is one row at u^1, and the factors that move a row below
    wp + 2 are applied, so every coefficient t^0..t^tcap is exact below
    u^(wp+2), its precision.  Tail: with g = -1/(q-1), the Gauss norm
    exponent of omega^{-1}, it is max(tail(omega) + 2g, -wp/ram + g), the
    bound for inverting the capped omega.  It bounds the true part of degree
    > tcap.  The t^k coefficient of omega^{-1} is u * (-1)^k e_k(theta^(-1),
    theta^(-q), ...), of valuation 1 + ram * (1 + ... + q^(k-1)) = q^k, so
    that part has norm exponent -(1 + (q^(tcap+1) - 1))/(q-1), at most
    -(tcap+1) - 1/(q-1) since q^(tcap+1) - 1 >= (q-1)(tcap+1).  The t^k
    coefficient of omega is lambda times a sum led by theta^(-k), of norm
    exponent 1/(q-1) - k, so omega's sound tail has tail(omega) >= 1/(q-1) -
    (tcap+1), that is tail(omega) + 2g >= -(tcap+1) - 1/(q-1).
    """
    om = omega(ctx, tcap, budget)  # records its truncation index on every call
    wp = budget.wp
    key = ("omega_inv", tcap, wp)
    if key not in ctx.cache:
        D = np.zeros((tcap + 1, wp + 1, ctx.spec.m), dtype=np.int64)
        D[0, 0] = ctx.one().coeffs[0]
        _apply_omega_inv_factors(ctx, D, np.full(tcap + 1, PREC_EXACT), 1, wp + 2)
        g = Fraction(-1, ctx.q - 1)
        tail = max(om.tail_norm_exp + 2 * g, Fraction(-wp, ctx.ram) + g)
        out = {(e,): RamLaurent(ctx, 1, D[e], wp + 2) for e in range(tcap + 1)}
        ctx.cache[key] = TateElem(ctx, 1, tcap, out, tail)
    return ctx.cache[key]


def chi_t(ctx: Completion, z: RamLaurent, tcap: int, budget: SeriesBudget) -> TateElem:
    """The entire interpolation of a -> a(t): omega^{-1} * agf_f(z).

    The keys, their order, every precision, the cap and the tail are those
    of the product omega_inv(...) * agf_f(...), by tate.mul_profile against
    the cached omega_inv; no product is formed.  The values come from
    omega^{-1} = lambda^{-1} * prod_{i>=0} (1 - t/theta^(q^i)) applied to F =
    agf_f(z) as its linear factors (_apply_omega_inv_factors), over one
    buffer with row r at u^(lo + r) and lo = 1 + the least offset of F:
    lambda^{-1} = u shifts every row by one.

    Bound.  Let P[e] be the product's precision at e, top the largest, and I
    the least index with ram * q^I + lo >= top.  The omitted factors multiply
    D by prod_{i>=I} (1 - t/theta^(q^i)) = 1 + sum_{k>=1} c_k t^k with
    v(c_k) >= ram * (q^I + ... + q^(I+k-1)) >= ram * q^I, and no row of D
    lies below lo.  Each omitted factor therefore moves D[e] only at rows >=
    ram * q^I + lo >= top >= P[e], and rows at or past top are never needed.
    So below P[e] the stored rows are those of the sum over ea + eb = e of
    omega^{-1}[ea] * F[eb] with the exact omega^{-1}, which omega_inv's
    coefficients are below their precision pa; since pa + v(F[eb]) >= P[e],
    they are the product's rows.  The recurrence's own precision, the least
    over the applied paths of prec(F[eb]) + 1 + the shifts, and ram * q^I +
    lo, must not fall below P[e]: that would mean the profile claims rows the
    factors do not fix, and InvariantError is raised.
    """
    inv = omega_inv(ctx, tcap, budget)
    F = agf_f(ctx, z, tcap, budget)
    cap, precs, tail = mul_profile(inv, F)
    if not precs:
        return TateElem(ctx, 1, cap, {}, tail)
    top = max(precs.values())
    if top >= PREC_EXACT:
        raise InvariantError("omega^-1 * agf_f has an exact coefficient")
    lo = 1 + min((c.offset for c in F.terms.values() if c.coeffs.shape[0]), default=top)
    D = np.zeros((cap + 1, max(top - lo, 0), ctx.spec.m), dtype=np.int64)
    rec = np.full(cap + 1, PREC_EXACT)
    for (e,), c in F.terms.items():
        at = c.offset + 1 - lo
        rows = c.coeffs[: max(D.shape[1] - at, 0)]
        D[e, at : at + rows.shape[0]] = rows
        if not c.is_exact():
            rec[e] = c.prec + 1
    fixed = _apply_omega_inv_factors(ctx, D, rec, lo, top)
    out = {}
    for (e,), prec in precs.items():
        if fixed[e] < prec:
            raise InvariantError(
                f"linear factors of omega^-1 fix t^{e} to u^{fixed[e]}, "
                f"below the product precision {prec}")
        out[(e,)] = RamLaurent(ctx, lo, D[e], prec)
    return TateElem(ctx, 1, cap, out, tail)


# -- Carlitz logarithm series


def papanikolas_L(ctx: Completion, alpha: RamLaurent, tcap: int,
                  budget: SeriesBudget) -> TateElem:
    """alpha + sum_{j>=1} alpha^{q^j} prod_{k<=j} (t - theta^{q^k})^{-1}.

    Gauss norm of term j is q^{C_j}, C_j = q^j a - (q + ... + q^j) with
    a = log_q|alpha|; C_j decreases iff a < q/(q-1), the convergence region.
    Coefficient of t^m is bounded by q^(c_exp - q m), c_exp = max(a, qa - q),
    which is the decay certificate that later justifies t -> theta.

    The series stops at the first j with ram * C_j <= -wp, and c_last is that
    C_j; both come from the closed form q + ... + q^j = q(q^j - 1)/(q - 1)
    before any term is formed.  stop needs no size guard: the valuation v of
    alpha is an integer and ram = q - 1, so a = -v/ram < q/(q-1) = 1 + 1/ram
    forces a <= 1.  Then ram * C_j <= (q-1) q^j - q(q^j - 1) = q - q^j, which
    is <= -wp once q^j >= wp + q; so stop = 1 or q^(stop-1) < wp + q, and
    q^stop <= q (wp + q).  An omitted term moves the t^m coefficient by
    at most q^(c_last - q m), so that coefficient is kept to precision
    p_m = ceil(ram (q m - c_last)).

    Horner form.  With beta_j = alpha^{q^j}, G_j = 1/(t - theta^{q^j}) and
    J = stop - 1, L = alpha + G_1(beta_1 + G_2(beta_2 + ... + G_J beta_J)).
    G_j = -theta^(-q^j) H_j, H_j = 1/(1 - t theta^(-q^j)), and monomials
    commute with the H_j, so L = sum_j beta'_j H_1 ... H_j with beta'_j =
    (-1)^j theta^(-(q + ... + q^j)) beta_j = u^(g_j) beta_j, g_j = ram (q +
    ... + q^j) = q^(j+1) - q: the sign (-1)^(j + q + ... + q^j) is 1 for
    odd q and void for even q.  One int64 buffer holds every t-coefficient,
    row r at u^(lo + r) with lo the least offset of the beta'_j, below top =
    p_tcap; for j = J, ..., 1 it takes beta'_j at t^0 and then H_j
    (_geometric_rows, b = q^j), and alpha last.  Each H_j moves rows up, so
    rows at or past top never reach a kept row.  No series product is formed.

    Precision.  The t^e coefficient of G_1 ... G_j is c_{j,e} = (-1)^j
    theta^(-(q + ... + q^j)) h_e(theta^(-q), ..., theta^(-q^j)), h_e the
    complete homogeneous polynomial, whose cheapest monomial theta^(-e q)
    comes from one path alone (all e steps in H_1): it does not cancel, and
    v(c_{j,e}) = g_j + e q ram.  So t^e is kept to min(p_e, prec(alpha) at
    e = 0, prec(beta_j) + v(c_{j,e}) for j >= 1), the precision of the
    capped products truncated at p_e.  The recurrence's own precision, the
    least prec(beta'_j) plus the shifts over the paths, must not fall below
    it, else InvariantError is raised.
    """
    wp = budget.wp
    q, ram = ctx.q, ctx.ram
    if alpha.is_exact_zero():
        return tate_zero(ctx, 1, tcap)
    a = alpha.norm_exp()
    if a >= Fraction(q, q - 1):
        raise AlphaTooLargeError(f"|alpha| = q^{a} outside the convergence disk")
    c_exp = max(a, q * a - q)

    def c_at(j):
        return q**j * a - q * (q**j - 1) // (q - 1)

    stop = 1
    while ram * c_at(stop) > -wp:
        stop += 1
    c_last = c_at(stop)
    p_m = [math.ceil(ram * (q * m - c_last)) for m in range(tcap + 1)]
    budget.n_terms["papanikolas_L"] = stop - 1
    # the tail only carries degrees above the cap
    tail = c_exp - q * (tcap + 1)
    if stop == 1:
        return TateElem(ctx, 1, tcap, {(0,): alpha.truncate(p_m[0])}, tail)
    top = p_m[-1]
    terms = [(0, alpha)] + [(q ** (j + 1) - q, alpha.qpow(j)) for j in range(1, stop)]
    lo = min((g + b.offset for g, b in terms if b.coeffs.shape[0]), default=top)
    D = np.zeros((tcap + 1, max(top - lo, 0), ctx.spec.m), dtype=np.int64)
    rec = np.full(tcap + 1, PREC_EXACT)
    for j in range(stop - 1, -1, -1):
        g, b = terms[j]
        at = g + b.offset - lo
        rows = b.coeffs[: max(D.shape[1] - at, 0)]
        D[0, at : at + rows.shape[0]] += rows
        rec[0] = min(rec[0], g + b.prec)
        if j:
            _geometric_rows(ctx, D, rec, q**j)
    claim = np.minimum(p_m, min(g + b.prec for g, b in terms[1:]) + q * ram * np.arange(tcap + 1))
    claim[0] = min(claim[0], alpha.prec)
    if (rec < claim).any():
        raise InvariantError("the Horner recurrence fixes a row below its claimed precision")
    D = (D % ctx.p).astype(np.int8)
    out = {(e,): RamLaurent(ctx, lo, D[e], c) for e, c in enumerate(claim.tolist())}
    return TateElem(ctx, 1, tcap, out, tail)


# -- block cancellation bound for lattice sums


def _cancel_exp(q: int, weight: int, j: int) -> int:
    """Extra decay exponent of a degree-j coordinate block sum.

    Summing prod_i a(t_i)^{r_i} * a^{-n} over all monic a of degree j runs
    each coordinate a_0..a_{j-1} over F_q.  A monomial survives the
    coordinate sums only if every coordinate appears with positive exponent
    divisible by q-1 (gamma-sum vanishing); exponents sourced from the
    a^{-n} expansion cost valuation (j - i) per unit at coordinate i, while
    the character factors contribute weight = sum r_i units for free.  The
    cheapest surviving monomial therefore costs

        C(j) = (q-1) * j(j+1)/2 - max total free reduction,

    where the free weight reduces coordinate costs greedily, (q-1) units at
    a time, starting at the most expensive coordinate.  The bound
    |block| <= q^{-jn - C(j)} is conservative (it assumes every multinomial
    coefficient is nonzero) and is cross-checked against exact block sums in
    the tests.
    """
    base = (q - 1) * j * (j + 1) // 2
    full, rem = divmod(weight, q - 1)
    full = min(full, j)
    red = (q - 1) * (full * j - full * (full - 1) // 2)
    if full < j:
        red += rem * (j - full)
    return max(0, base - red)


def _monic_block(ctx: Completion, j: int):
    """All monic degree-j lattice polynomials with their exact embeddings."""
    key = ("monic", j)
    if key not in ctx.cache:
        ctx.cache[key] = [(a, ctx.embed_poly(a))
                          for a in enumerate_A(ctx.spec, j, monic=True)]
    return ctx.cache[key]


def _char_coeffs(ctx: Completion, a: GFPoly, powers) -> dict:
    """Multi-exponent coefficients of prod_i a(t_i)^{powers[i]}."""
    per_var = []
    for p in powers:
        f = a.retag("t")
        pw = ctx.spec.poly([1], "t")
        base = f
        n = p
        while n:
            if n & 1:
                pw = pw * base
            base = base * base if n > 1 else base
            n >>= 1
        per_var.append([(k, c) for k, c in enumerate(pw.coeffs) if not c.is_zero()])
    out = {(): ctx.spec.one}
    for terms in per_var:
        nxt = {}
        for e, c in out.items():
            for k, ck in terms:
                key = e + (k,)
                v = c * ck
                if key in nxt:
                    v = nxt[key] + v
                if not v.is_zero():
                    nxt[key] = v
                elif key in nxt:
                    del nxt[key]
        out = nxt
    return out


def _monic_rows(ctx: Completion, j: int, k: int = 1) -> np.ndarray:
    """(q^j, k*j*ram + 1, m) coordinates of a^k, k >= 1, over the monic degree-j a.

    Row r of each entry is the coefficient of u^(r - k*j*ram), so every entry
    starts at its valuation; enumeration order is that of _monic_block.  The
    powers are exact, cached per (j, k) and built from the power below.  An
    embedded polynomial in theta has terms at multiples of ram only, so each
    power is a product of the rows at that stride.
    """
    key = ("monic_rows", j, k)
    if key not in ctx.cache:
        block = _monic_block(ctx, j)
        if k == 1:
            base = -j * ctx.ram
            rows = np.zeros((len(block), 1 - base, ctx.spec.m), dtype=np.int64)
            for i, (_, emb) in enumerate(block):
                rows[i, emb.offset - base : emb.end() - base] = emb.coeffs
        else:
            ram = ctx.ram
            rows = np.zeros((len(block), k * j * ram + 1, ctx.spec.m), dtype=np.int64)
            rows[:, ::ram] = batch_mul(ctx, _monic_rows(ctx, j)[:, ::ram],
                                       _monic_rows(ctx, j, k - 1)[:, ::ram], k * j + 1)
        ctx.cache[key] = rows
    return ctx.cache[key]


def _block_chars(ctx: Completion, j: int, powers: tuple):
    """(keys, C) for a degree-j block, cached per (j, powers): C (K, q^j, m)
    holds the coordinates of chi(a)[e], the coefficients of
    prod_i a(t_i)^{r_i}, with keys in first-appearance order."""
    key = ("block_chars", j, powers)
    if key not in ctx.cache:
        chis = [_char_coeffs(ctx, a, powers) for a, _ in _monic_block(ctx, j)]
        keys = tuple(dict.fromkeys(e for chi in chis for e in chi))
        slot = {e: k for k, e in enumerate(keys)}
        C = np.zeros((len(keys), len(chis), ctx.spec.m), dtype=np.int64)
        for ai, chi in enumerate(chis):
            for e, coef in chi.items():
                C[slot[e], ai] = coef.coords
        ctx.cache[key] = (keys, C)
    return ctx.cache[key]


def _block_weights(ctx: Completion, js: tuple, powers: tuple):
    """Character-weight matrix of the degree blocks js, cached per (js, powers).

    Stacked row i is the i-th monic a of the blocks js in order; its weight
    on key e is chi(a)[e], with keys in first-appearance order.  Returns
    (keys, G, mask): G is the (K*m, N*m) matrix that contracts stacked F_p
    coordinate rows into the key coefficients through basis_mul_table, mask
    (K, N) marks nonzero weights.
    """
    key = ("block_weights", js, powers)
    if key not in ctx.cache:
        chars = [_block_chars(ctx, j, powers) for j in js]
        keys = tuple(dict.fromkeys(e for ks, _ in chars for e in ks))
        slot = {e: k for k, e in enumerate(keys)}
        m = ctx.spec.m
        W = np.zeros((len(keys), sum(C.shape[1] for _, C in chars), m), dtype=np.int64)
        r0 = 0
        for ks, C in chars:
            W[[slot[e] for e in ks], r0 : r0 + C.shape[1]] = C
            r0 += C.shape[1]
        T = ctx.spec.basis_mul_table.astype(np.int64)
        G = np.einsum("kia,abc->kcib", W, T).reshape(len(keys) * m, -1) % ctx.p
        ctx.cache[key] = (keys, G, W.any(axis=2))
    return ctx.cache[key]


def _contract(ctx: Completion, weights, X: np.ndarray, off: np.ndarray,
              prec: np.ndarray):
    """One contraction of stacked inverses against a block's weights.

    Returns (keys, lo, Y, kprec): key k receives sum_r Y[k, r] u^(lo + r),
    known below kprec[k], the least precision among the rows it weights.
    """
    keys, G, mask = weights
    N, L, m = X.shape
    lo = int(off.min())
    R = int(off.max()) - lo + L
    if R == L:
        P = X
    else:
        P = np.zeros((N, R, m), dtype=np.int64)
        P[np.arange(N)[:, None], (off - lo)[:, None] + np.arange(L)] = X
    flat = P.transpose(0, 2, 1).reshape(N * m, R)
    Y = (G @ flat).reshape(len(keys), m, R).transpose(0, 2, 1) % ctx.p
    kprec = np.where(mask, prec[None, :], PREC_EXACT).min(axis=1)
    return keys, lo, Y, kprec


def _assemble(ctx: Completion, parts) -> dict:
    """Sum contracted blocks per key; each coefficient is built once."""
    slot: dict = {}
    for keys, *_ in parts:
        for e in keys:
            slot.setdefault(e, len(slot))
    lo = min(part[1] for part in parts)
    hi = max(part[1] + part[2].shape[1] for part in parts)
    acc = np.zeros((len(slot), hi - lo, ctx.spec.m), dtype=np.int64)
    kprec = np.full(len(slot), PREC_EXACT, dtype=np.int64)
    for keys, plo, Y, pprec in parts:
        idx = [slot[e] for e in keys]
        acc[idx, plo - lo : plo - lo + Y.shape[1]] += Y
        kprec[idx] = np.minimum(kprec[idx], pprec)
    return {e: RamLaurent(ctx, lo, acc[k], kprec[k]) for e, k in slot.items()}


def _framed_powers(ctx: Completion, js: list, k: int, lo: int, hi: int) -> np.ndarray:
    """(N, hi - lo, m): a^k over the monic a of the degree blocks js, in
    order, each at its valuation -k*j*ram in the frame u^lo .. u^(hi - 1),
    truncated at u^hi."""
    rows = [_monic_rows(ctx, j, k) for j in js]
    out = np.zeros((sum(len(R) for R in rows), max(hi - lo, 0), ctx.spec.m), dtype=np.int64)
    r0 = 0
    for j, R in zip(js, rows):
        base = -k * j * ctx.ram
        w = min(R.shape[1], hi - base)
        if w > 0:
            out[r0 : r0 + len(R), base - lo : base - lo + w] = R[:, :w]
        r0 += len(R)
    return out


def _orbit_extents(ctx: Completion, js: list, z: RamLaurent, wp: int):
    """(V, P, starts): what the unit rows z - c*a of each monic a would give.

    Row i is one monic a of the degree blocks js, in order; block js[k]
    holds rows starts[k] .. starts[k + 1].  Its q - 1 unit rows z - c*a,
    framed and truncated at z's precision like the series they stand for,
    are only tested for nonzero coefficients, never inverted: inv_extent
    reads their valuations v_c and the precisions P_c their inverses would
    have.  V[i] = sum_c v_c and P[i] = min_c P_c.  Raises LatticePoleError
    for the first block with a unit row that vanishes in the frame.
    """
    lo = -max(js) * ctx.ram if z.is_zero() else min(-max(js) * ctx.ram, z.offset)
    hi = min(max(1, z.end()), z.prec)  # the monic rows end at u^0
    A = _framed_powers(ctx, js, 1, lo, hi)
    F = A.shape[1]
    Z = np.zeros((F, ctx.spec.m), dtype=np.int64)
    if not z.is_zero():
        Z[z.offset - lo : z.end() - lo] = z.coeffs
    units = [c for c in ctx.spec.subfield_elements() if not c.is_zero()]
    S = np.stack([ctx.spec.scalar_matrix(c) for c in units])
    nz = ((Z - A @ S[:, None]) % ctx.p).any(axis=3)
    pole = ~nz.any(axis=2).all(axis=0)
    starts = np.cumsum([0] + [ctx.q**j for j in js])
    if pole.any():
        j = js[int(np.searchsorted(starts, pole.argmax(), side="right")) - 1]
        raise LatticePoleError(f"z meets the lattice at degree {j} to precision {z.prec}")
    v, _, prec = inv_extent(nz.reshape(-1, F), lo, z.prec, wp)
    V = v.reshape(len(S), -1).sum(axis=0)
    P = prec.reshape(len(S), -1).min(axis=0)
    return V, P, starts


def _orbit_sums(ctx: Completion, js: list, starts, z: RamLaurent, V, P, k0s) -> dict:
    """{k0: (Y, off)}: row i of Y is -a^k0 z^(q-2-k0) / (z^(q-1) - a^(q-1))
    for the i-th monic a, sum_r Y[i, r] u^(off[i] + r), right below P[i].

    z stands for its stored terms, exactly.  Every row E_a = z^(q-1) -
    a^(q-1) has valuation V[i] (_orbit_extents) and is inverted in one
    stack_inv call, to the length that the longest numerator needs to reach
    P[i]; each k0 takes one batch_mul with its numerators as left factor,
    and one more to form them when both powers are positive (q >= 4).
    """
    q, p, m = ctx.q, ctx.p, ctx.spec.m
    N = int(starts[-1])
    deg = np.repeat(js, np.diff(starts))
    zpow = [ctx.one(), RamLaurent(ctx, z.offset, z.coeffs)]
    while len(zpow) < q:
        zpow.append(zpow[-1] * zpow[1])
    nums = {}
    n_E = np.ones(N, dtype=np.int64)
    for k0 in k0s:
        zk = zpow[q - 2 - k0]
        if zk.is_zero():
            # z has no stored terms, so a positive power of it kills the sums
            nums[k0] = np.zeros((N, 1, m), dtype=np.int64), np.zeros(N, dtype=np.int64)
            continue
        num = np.broadcast_to(zk.coeffs, (N, *zk.coeffs.shape))
        if k0:
            ak = [_monic_rows(ctx, j, k0) for j in js]
            A = np.zeros((N, max(R.shape[1] for R in ak), m), dtype=np.int64)
            for r0, R in zip(starts, ak):
                A[r0 : r0 + R.shape[0], : R.shape[1]] = R
            if k0 == q - 2:
                num = A
            else:
                num = batch_mul(ctx, *sorted((A, num), key=lambda f: f.shape[1]),
                                A.shape[1] + num.shape[1] - 1)
        L = num.shape[1]
        vN = zk.offset - k0 * ctx.ram * deg
        nums[k0] = (-num) % p, vN
        # an exact orbit has a single-term E_a: its sum is the whole numerator
        np.maximum(n_E, np.where(P >= PREC_EXACT, L, P - vN + V), out=n_E)
    zq = zpow[q - 1]
    lo = -(q - 1) * max(js) * ctx.ram
    if not zq.is_zero():
        lo = min(lo, zq.offset)
    hi = int((V + n_E).max())
    E = -_framed_powers(ctx, js, q - 1, lo, hi)
    w = min(zq.end(), hi) - zq.offset
    if not zq.is_zero() and w > 0:
        E[:, zq.offset - lo : zq.offset - lo + w] += zq.coeffs[:w]
    X, off, _ = stack_inv(ctx, np.mod(E, p, out=E), lo, PREC_EXACT, n_E)
    if (off != -V).any():
        raise InvariantError("z^(q-1) - a^(q-1) does not have the valuation of its unit rows")
    out = {}
    for k0, (num, vN) in nums.items():
        n = max(int((P - vN + V).clip(max=n_E).max()), 1)
        out[k0] = batch_mul(ctx, num, X, n), vN - V
    return out


# -- the lattice sums


def psi(ctx: Completion, s: int, z: RamLaurent, degcap: int, tcap: int,
        budget: SeriesBudget, powers=None) -> TateElem:
    """sum over deg a < degcap of a(t_1)^{r_1}...a(t_s)^{r_s}/(z - a).

    powers defaults to all ones; a zero entry drops that variable's character
    factor (subset sums).  With total weight zero the a = 0 term survives and
    is kept.  Blocks are summed ascending by degree; once q^j exceeds |z| a
    block is bounded by q^{-(j + C(j))} (series expansion in z/a plus the
    coordinate cancellation bound) and blocks below the working precision are
    folded into the tail.  The one-tuple case of psi_family.
    """
    if powers is None:
        powers = (1,) * s
    return psi_family(ctx, s, z, degcap, tcap, budget, [powers])[0]


def psi_family(ctx: Completion, s: int, z: RamLaurent, degcap: int, tcap: int,
               budget: SeriesBudget, powers_list) -> list:
    """[psi(ctx, s, z, degcap, tcap, budget, powers) for powers in powers_list],
    with one row per unit orbit, inverted once for all of them.

    The terms of a = c*b, b monic and c a unit of F_q, form an orbit: since
    chi(c*b) = c^w chi(b) with w = sum(powers), the orbit contributes
    chi(b) * S_w(b), S_w(b) = sum_c c^w / (z - c*b).  With k0 = -w mod (q-1),

        S_w(b) = -b^k0 z^(q-2-k0) / (z^(q-1) - b^(q-1)).

    Proof: prod_c (X - c*b) = X^(q-1) - b^(q-1), so both sides are rational
    in z and b, and it suffices to compare expansions for |z| > |b|.  There
    1/(z - c*b) = sum_n c^n b^n / z^(n+1), and orthogonality of the
    characters of F_q^* gives sum_c c^(w+n) = q - 1 = -1 when q - 1 divides
    w + n and 0 otherwise.  The surviving n = k0 + (q-1)i sum to
    -b^k0 / z^(k0+1) * 1 / (1 - (b/z)^(q-1)), the right-hand side.

    Precision: z stands for its stored terms, so the identity holds exactly
    in the series the unit rows z - c*b stand for.  Each orbit is kept below
    the least precision its q - 1 unit inverses would have had, the rule of
    inv_extent applied to their valuations (_orbit_extents); below it the
    sum of those inverses is the orbit sum, so every coefficient, offset,
    precision and tail is that of the term-by-term sum.  One stack_inv call
    inverts the rows z^(q-1) - b^(q-1) of every kept block at once
    (_orbit_sums): sum_{j <= J} q^j rows, fewer than the (q-1) * q^J of
    block J alone.  The rows do not depend on the powers, so the kept
    blocks of every tuple (a prefix 0..J_k, since j + C(j) grows with j)
    share them; each distinct k0 takes one numerator product, and each
    tuple contracts its kept rows against chi(b), the weights L_multi uses.
    Raises what psi would raise for the first tuple, in list order, that
    fails.  n_terms["psi"] records the inverted blocks.
    """
    wp = budget.wp
    q, ram = ctx.q, ctx.ram
    if s < 0 or degcap < 1:
        raise ShapeMismatchError("need s >= 0 and degcap >= 1")
    az = z.norm_exp()
    family, kept, tails = [], [], []
    for powers in powers_list:
        powers = tuple(powers)
        if len(powers) != s or any(p < 0 for p in powers):
            raise ShapeMismatchError("powers must list one exponent >= 0 per variable")
        if Fraction(degcap) <= az:
            raise ConfigError(f"degcap {degcap} does not exceed log|z| = {az}")
        weight = sum(powers)
        # blocks at degree >= degcap obey the same j + C(j) bound, which only grows
        tail = Fraction(-(degcap + _cancel_exp(q, weight, degcap)))
        blocks = []
        for j in range(degcap):
            c_j = _cancel_exp(q, weight, j)
            if Fraction(j) > az and ram * (j + c_j) >= wp + 2:
                tail = max(tail, Fraction(-(j + c_j)))
            else:
                blocks.append(j)
        family.append(powers)
        kept.append(blocks)
        tails.append(tail)
    # the first weight-zero tuple meets the a = 0 pole when z vanishes; the
    # tuples before it are checked for lattice poles, nothing is inverted
    a0 = None
    if z.is_zero():
        a0 = next((k for k, powers in enumerate(family) if not any(powers)), None)
    union = sorted(set().union(*kept[:a0]))
    if union:
        V, P, starts = _orbit_extents(ctx, union, z, wp)
    if a0 is not None:
        raise LatticePoleError("z vanishes to working precision (a = 0 pole)")
    parts = [[] for _ in family]
    if not all(map(any, family)):
        zi = z.inv(wp)
        for powers, out in zip(family, parts):
            if not any(powers):
                out.append((((0,) * s,), zi.offset, zi.coeffs[None], np.array([zi.prec])))
    if union:
        k0s = [(-sum(powers)) % (q - 1) for powers in family]
        sums = _orbit_sums(ctx, union, starts, z, V, P, sorted(set(k0s)))
        for powers, k0, blocks, out in zip(family, k0s, kept, parts):
            Y, off = sums[k0]
            r1 = starts[len(blocks)]  # the kept blocks are a prefix of union
            out.append(_contract(ctx, _block_weights(ctx, tuple(blocks), powers),
                                 Y[:r1], off[:r1], P[:r1]))
    budget.n_terms["psi"] = union
    return [TateElem(ctx, s, tcap, _assemble(ctx, out), tail)
            for out, tail in zip(parts, tails)]


def _monic_inverses(ctx: Completion, j: int, wp: int):
    """(X, single): the first wp coefficients of 1/a for the monic degree-j
    block, stacked like _monic_rows (stack_inv, rows starting at u^(j*ram)),
    and the mask of the single-term a, whose inverse is exact and keeps one
    coefficient.  Cached per (j, wp)."""
    key = ("monic_inv", j, wp)
    if key not in ctx.cache:
        X, _, prec = stack_inv(ctx, _monic_rows(ctx, j), -j * ctx.ram, PREC_EXACT, wp)
        ctx.cache[key] = X, prec >= PREC_EXACT
    return ctx.cache[key]


def L_multi(ctx: Completion, s: int, n: int, degcap: int, tcap: int,
            budget: SeriesBudget, powers=None) -> TateElem:
    """sum over monic a, deg a < degcap, of a(t_1)^{r_1}...a(t_s)^{r_s} a^{-n}.

    powers defaults to all ones; the q-th-power character variants feed the
    difference-equation checks.  Block j carries |block| <= q^{-jn - C(j)}.
    Each kept block takes the cached inverses 1/a of its monic rows
    (_monic_inverses), raises them to the n-th power with batch_mul and
    contracts against chi(a).  The first wp coefficients of (1/a)^n are
    those of 1/a^n, and a^n is a single term exactly when a is, so the rows
    and precisions are those of stack_inv applied to a^n.
    """
    wp = budget.wp
    q, ram = ctx.q, ctx.ram
    if s < 0 or n < 1 or degcap < 1:
        raise ShapeMismatchError("need s >= 0, n >= 1, degcap >= 1")
    if powers is None:
        powers = (1,) * s
    powers = tuple(powers)
    if len(powers) != s or any(p < 1 for p in powers):
        raise ShapeMismatchError("powers must list one positive exponent per variable")
    weight = sum(powers)
    parts = []
    tail = Fraction(-(n * degcap + _cancel_exp(q, weight, degcap)))
    blocks = []
    for j in range(degcap):
        c_j = _cancel_exp(q, weight, j)
        if ram * (j * n + c_j) >= wp + 2:
            tail = max(tail, Fraction(-(j * n + c_j)))
            continue
        blocks.append(j)
        X, single = _monic_inverses(ctx, j, wp)
        L = X.shape[1]
        Xn, base, k = X, X, n - 1
        while k:
            if k & 1:
                Xn = batch_mul(ctx, Xn, base, L)
            k >>= 1
            if k:
                base = batch_mul(ctx, base, base, L)
        v = -j * ram * n
        off = np.full(len(X), -v)
        prec = np.where(single, PREC_EXACT, -v + wp)
        parts.append(_contract(ctx, _block_weights(ctx, (j,), powers), Xn, off, prec))
    budget.n_terms["L_multi"] = blocks
    return TateElem(ctx, s, tcap, _assemble(ctx, parts), tail)


# -- exact ultrametric linear solves


def ram_solve(rows, rhs, wp: int):
    """Solve a small linear system with RamLaurent entries by elimination.

    rhs is one right-hand side (n entries), giving one solution, or a list
    of them, giving a list of solutions.  The matrix is eliminated once and
    the recorded swaps and multipliers are replayed on every right-hand side;
    pivots depend on the matrix alone.  Pivots on the largest-norm entry per
    column; raises on term-free pivot columns (the system is singular to
    working precision).
    """
    n = len(rows)
    several = bool(rhs) and not isinstance(rhs[0], RamLaurent)
    bs = [list(b) for b in rhs] if several else [list(rhs)]
    if any(len(r) != n for r in rows) or any(len(b) != n for b in bs):
        raise ShapeMismatchError("system must be square with matching rhs")
    A = [list(r) for r in rows]
    steps = []
    for col in range(n):
        best, best_norm = None, NEG_INF
        for r in range(col, n):
            x = A[r][col]
            if not x.is_zero() and x.norm_exp() > best_norm:
                best, best_norm = r, x.norm_exp()
        if best is None:
            raise SingularSystemError(f"no usable pivot in column {col}")
        A[col], A[best] = A[best], A[col]
        inv_p = A[col][col].inv(wp)
        mults = []
        for r in range(col + 1, n):
            if A[r][col].is_zero():
                continue
            f = A[r][col] * inv_p
            for c in range(col, n):
                A[r][c] = A[r][c] - f * A[col][c]
            mults.append((r, f))
        steps.append((best, inv_p, mults))
    sols = []
    for b in bs:
        for col, (best, _, mults) in enumerate(steps):
            b[col], b[best] = b[best], b[col]
            for r, f in mults:
                b[r] = b[r] - f * b[col]
        out = [None] * n
        for r in range(n - 1, -1, -1):
            acc = b[r]
            for c in range(r + 1, n):
                acc = acc - A[r][c] * out[c]
            out[r] = acc * steps[r][1]
        sols.append(out)
    return sols if several else sols[0]
