"""Special functions of the Carlitz module with certified truncation error.

Everything returns either a RamLaurent or a TateElem whose precision and
tail bounds are sound for the requested budget; each series documents its
own stopping rule and records the derived truncation index in the budget.
"""

import itertools
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
from .fields import GFPoly, carlitz_dl, degree_guard, enumerate_A, power
from .laurent import (NEG_INF, PREC_EXACT, Completion, RamLaurent, batch_mul, inv_extent,
                      mul_precs, stack_inv)
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


def _pi_times(ctx: Completion, z: RamLaurent, slack: int, wp: int) -> RamLaurent:
    """pi_tilde * z for the exponential terms of working precision wp and
    positive-exponent slack: pi_tilde to wp + slack + q + max(0, -v(z))."""
    return pi_tilde(ctx, SeriesBudget(wp + slack + ctx.q + max(0, -z.valuation()), 0)) * z


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
    _, slack = _exp_indices(ctx, z.valuation() + v_pi, wp)
    return carlitz_exp(ctx, _pi_times(ctx, z, slack, wp), budget)


def u_val(ctx: Completion, z: RamLaurent, budget: SeriesBudget) -> RamLaurent:
    """1/e_C(z); requires e_C(z) nonzero at working precision."""
    e = carlitz_e(ctx, z, budget)
    if e.is_zero():
        raise LatticePoleError(f"e_C(z) vanishes to precision {e.prec}")
    return e.inv(budget.wp)


def modulus_inv(ctx: Completion, m: GFPoly, wp: int) -> RamLaurent:
    """1/m for a monic m in F_q[theta], embedded: the one precision rule for
    inverting an embedded modulus keeps wp + 2 * deg(m) * ram + q terms."""
    return ctx.embed_poly(m).inv(wp + 2 * m.degree * ctx.ram + ctx.q)


def u_m_val(ctx: Completion, z: RamLaurent, m: GFPoly, budget: SeriesBudget) -> RamLaurent:
    """1/(m * e_C(z/m)) for monic m: the conductor-m uniformizer."""
    wp = budget.wp
    e = carlitz_e(ctx, z * modulus_inv(ctx, m, wp + max(0, -z.valuation())), budget)
    denom = ctx.embed_poly(m) * e
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
        i = _omega_factors(ctx, -1, wp)
        for k in range(i):
            _geometric_rows(ctx, D, rec, ctx.q**k)
        tail = Fraction(1, ctx.q - 1) - (tcap + 1) if i else NEG_INF
        n = tcap + 1 if i else 1  # no factor: lambda alone
        ctx.cache[key] = TateElem.frame(ctx, 1, tcap, [(e,) for e in range(n)], -1, D[:n],
                                        np.minimum(rec[:n], wp), tail), i
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
    frame, row r at u^(lo + r), lo = ram + the least offset of the s_n, W rows
    below the largest P[e] and L more (the longest s_n), takes each s_n at
    row a + e q^n ram of key e through one strided view, for the keys whose
    start is at most W: a later one starts past its P[e], and no write passes
    row W + L.  TateElem.frame drops the rows from P[e] on and reduces once.
    These are the rows and precisions of the capped products of
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
    w = _pi_times(ctx, z, slack, wp)
    terms = [(q**n * ram, _term(ctx, w, n, wp, wp + slack)) for n in keep]
    if not terms:
        return tate_zero(ctx, 1, tcap)
    tail = Fraction(max(-(tcap + 2) * st - s.valuation() for st, s in terms), ram)
    e1 = np.arange(1, tcap + 2)
    prec = np.minimum.reduce([s.prec + e1 * st for st, s in terms])
    lo = min((s.offset for _, s in terms if s.coeffs.shape[0]), default=0) + ram
    W, L = max(int((prec - lo).max()), 0), max(s.coeffs.shape[0] for _, s in terms)
    D = np.zeros((tcap + 1, W + L, m), dtype=np.int64)
    row, col = D.strides[1:]
    for st, s in terms:
        a = s.offset + st - lo  # frame row of the first row of s_n at t^0
        k = min(tcap + 1, (W - a) // st + 1) if a <= W else 0
        if k and s.coeffs.shape[0]:
            np.ndarray((k, s.coeffs.shape[0], m), dtype=np.int64, buffer=D, offset=a * row,
                       strides=((W + L + st) * row, row, col))[:] += s.coeffs
    D[::2] *= -1  # the sign (-1)^(e+1)
    return TateElem.frame(ctx, 1, tcap, [(e,) for e in range(tcap + 1)], lo, D, prec, tail)


def _omega_factors(ctx: Completion, lo: int, top: int) -> int:
    """The least I with ram * q^I + lo >= top: how many factors (1 - t/theta^(q^i))
    of omega^{-1}, or their inverses in omega, move rows from u^lo below top."""
    i = 0
    while ctx.ram * ctx.q**i + lo < top:
        i += 1
    return i


def _apply_omega_inv_factors(ctx: Completion, D: np.ndarray, rec: np.ndarray,
                             lo: int, top: int) -> np.ndarray:
    """Multiply D by the first _omega_factors(ctx, lo, top) linear
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
    n = _omega_factors(ctx, lo, top)
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
        ctx.cache[key] = TateElem.frame(ctx, 1, tcap, [(e,) for e in range(tcap + 1)], 1, D,
                                        np.full(tcap + 1, wp + 2), tail)
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
    cap, keys, precs, tail = mul_profile(inv, F)
    if not keys:
        return TateElem(ctx, 1, cap, {}, tail)
    top = int(precs.max())
    if top >= PREC_EXACT:
        raise InvariantError("omega^-1 * agf_f has an exact coefficient")
    lo = 1 + (F.lo if F.block.shape[1] else top)
    D = np.zeros((cap + 1, max(top - lo, 0), ctx.spec.m), dtype=np.int64)
    rows = F.block[:, : D.shape[1]]  # F's frame starts at u^(lo - 1)
    D[[e for (e,) in F.keys], : rows.shape[1]] = rows
    rec = np.full(cap + 1, PREC_EXACT)
    rec[[e for (e,) in F.keys]] = np.where(F.precs < PREC_EXACT, F.precs + 1, PREC_EXACT)
    fixed = _apply_omega_inv_factors(ctx, D, rec, lo, top)
    e = np.array(keys).reshape(-1)
    if (fixed[e] < precs).any():
        k = int(np.argmax(fixed[e] < precs))
        raise InvariantError(
            f"linear factors of omega^-1 fix t^{e[k]} to u^{fixed[e[k]]}, "
            f"below the product precision {precs[k]}")
    return TateElem.frame(ctx, 1, cap, keys, lo, D[e], precs, tail)


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
    return TateElem.frame(ctx, 1, tcap, [(e,) for e in range(tcap + 1)], lo, D, claim, tail)


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


def _kept_blocks(ctx: Completion, weight: int, n: int, degcap: int, wp: int, az=NEG_INF):
    """(blocks, tail) of a lattice sum of chi(a) a^-n over deg a < degcap,
    chi of total weight weight: the degrees j it keeps, and its tail.  Block
    j beyond log|z| = az (psi: n = 1; L_multi: no z) is bounded by
    q^-(j n + C(j)), C = _cancel_exp, and folded into the tail once that is
    below u^(wp + 2).  The blocks at j >= degcap obey the same bound, which
    grows with j, so the tail starts at degcap's."""
    tail = Fraction(-(n * degcap + _cancel_exp(ctx.q, weight, degcap)))
    blocks = []
    for j in range(degcap):
        c_j = _cancel_exp(ctx.q, weight, j)
        if j > az and ctx.ram * (j * n + c_j) >= wp + 2:
            tail = max(tail, Fraction(-(j * n + c_j)))
        else:
            blocks.append(j)
    return blocks, tail


def _monic_pows(ctx: Completion, j: int, k: int = 1) -> np.ndarray:
    """(q^j, k*j + 1, m) theta-coefficient coordinates of a^k, k >= 1, over the
    monic degree-j a in enumerate_A order, low degree first: the one table
    behind every lattice block, cached per (j, k).  k = 1 reads the field
    indices of the enumeration; each higher power is one batch_mul on the
    power below, exact since it keeps all k*j + 1 coefficients."""
    key = ("monic_pows", j, k)
    if key not in ctx.cache:
        if k == 1:
            idx = [a.idx for a in enumerate_A(ctx.spec, j, monic=True)]
            P = ctx.spec.coord_rows(np.ravel(idx)).reshape(len(idx), j + 1, ctx.spec.m)
        else:
            P = batch_mul(ctx, _monic_pows(ctx, j), _monic_pows(ctx, j, k - 1), k * j + 1)
        ctx.cache[key] = P
    return ctx.cache[key]


def _monic_rows(ctx: Completion, j: int, k: int = 1) -> np.ndarray:
    """(q^j, k*j*ram + 1, m) coordinates of the embedded a^k over the monic
    degree-j a: _monic_pows through Completion.embed_rows, cached per (j, k).
    Row r of each entry is the coefficient of u^(r - k*j*ram), so every
    entry starts at its valuation."""
    key = ("monic_rows", j, k)
    if key not in ctx.cache:
        ctx.cache[key] = ctx.embed_rows(_monic_pows(ctx, j, k))
    return ctx.cache[key]


def _block_weights(ctx: Completion, js: tuple, powers: tuple):
    """Character-weight matrix of the degree blocks js, cached per (js, powers).

    Stacked row i is the i-th monic a of the blocks js in order; its weight
    on key e is chi(a)[e] = prod_i [t^e_i] a(t)^r_i, column e_i of
    _monic_pows(j, r_i), formed by one field product per variable over the
    grid of keys.  A product of field elements vanishes only with a factor,
    so row i weights exactly the keys at which every factor is nonzero.
    Keys are in first-appearance order: rows in order, and within one row
    lexicographic.  Returns (keys, G, mask): G is the (K*m, N*m) matrix that
    contracts stacked F_p coordinate rows into the key coefficients, mask
    (K, N) marks nonzero weights.
    """
    key = ("block_weights", js, powers)
    if key not in ctx.cache:
        spec, m = ctx.spec, ctx.spec.m
        slot, blocks = {}, []
        for j in js:
            # chi(a) over the grid of keys, C-order, from chi = 1
            C = np.broadcast_to(np.eye(1, m, dtype=np.int64), (ctx.q**j, 1, m))
            for r in powers:
                if r:
                    M = spec.mul_matrices(_monic_pows(ctx, j, r))
                    C = np.einsum("akx,abxy->akby", C, M).reshape(len(M), -1, m) % ctx.p
            nz = C.any(axis=2)
            live = nz.any(axis=0).nonzero()[0]
            cols = live[np.argsort(nz[:, live].argmax(axis=0), kind="stable")]
            grid = list(itertools.product(*(range(r * j + 1) for r in powers)))
            blocks.append((C, cols, [slot.setdefault(grid[c], len(slot)) for c in cols]))
        W = np.zeros((len(slot), sum(len(C) for C, _, _ in blocks), m), dtype=np.int64)
        r0 = 0
        for C, cols, ks in blocks:
            W[ks, r0 : r0 + len(C)] = C[:, cols].transpose(1, 0, 2)
            r0 += len(C)
        G = spec.mul_matrices(W).transpose(0, 3, 1, 2).reshape(len(slot) * m, -1)
        ctx.cache[key] = (tuple(slot), G, W.any(axis=2))
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


def _assemble(ctx: Completion, parts):
    """Sum contracted blocks per key into one frame: (keys, lo, block, precs)."""
    slot = {e: k for k, e in enumerate(dict.fromkeys(e for keys, *_ in parts for e in keys))}
    lo = min(part[1] for part in parts)
    hi = max(part[1] + part[2].shape[1] for part in parts)
    acc = np.zeros((len(slot), hi - lo, ctx.spec.m), dtype=np.int64)
    kprec = np.full(len(slot), PREC_EXACT, dtype=np.int64)
    for keys, plo, Y, pprec in parts:
        idx = [slot[e] for e in keys]
        acc[idx, plo - lo : plo - lo + Y.shape[1]] += Y
        kprec[idx] = np.minimum(kprec[idx], pprec)
    return tuple(slot), lo, acc, kprec


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
    S = ctx.spec.mul_matrices(ctx.spec.coord_rows(np.arange(1, ctx.q)))  # the units of F_q
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
        blocks, tail = _kept_blocks(ctx, sum(powers), 1, degcap, wp, az)
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
        k0s = [(-sum(powers)) % (ctx.q - 1) for powers in family]
        sums = _orbit_sums(ctx, union, starts, z, V, P, sorted(set(k0s)))
        for powers, k0, blocks, out in zip(family, k0s, kept, parts):
            Y, off = sums[k0]
            r1 = starts[len(blocks)]  # the kept blocks are a prefix of union
            out.append(_contract(ctx, _block_weights(ctx, tuple(blocks), powers),
                                 Y[:r1], off[:r1], P[:r1]))
    budget.n_terms["psi"] = union
    return [TateElem.frame(ctx, s, tcap, *_assemble(ctx, out), tail)
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
    if s < 0 or n < 1 or degcap < 1:
        raise ShapeMismatchError("need s >= 0, n >= 1, degcap >= 1")
    if powers is None:
        powers = (1,) * s
    powers = tuple(powers)
    if len(powers) != s or any(p < 1 for p in powers):
        raise ShapeMismatchError("powers must list one positive exponent per variable")
    blocks, tail = _kept_blocks(ctx, sum(powers), n, degcap, wp)
    parts = []
    for j in blocks:
        X, single = _monic_inverses(ctx, j, wp)
        L = X.shape[1]
        Xn = power(X, n, lambda a, b: batch_mul(ctx, a, b, L))
        v = -j * ctx.ram * n
        off = np.full(len(X), -v)
        prec = np.where(single, PREC_EXACT, -v + wp)
        parts.append(_contract(ctx, _block_weights(ctx, (j,), powers), Xn, off, prec))
    budget.n_terms["L_multi"] = blocks
    return TateElem.frame(ctx, s, tcap, *_assemble(ctx, parts), tail)


# -- exact ultrametric linear solves
#
# A stack is N RamLaurent entries as (X, v, prec): X (N, L, m) int64 holds
# entry i's rows from its valuation v[i] on, zero past them, and prec[i] is
# its precision.  As RamLaurent.valuation, v[i] is the precision of a
# term-free entry, so entry i has terms exactly when v[i] < prec[i], and it
# is the exact zero exactly when v[i] >= PREC_EXACT.  L >= 1.  ram_solve
# lays a matrix out as a frame: a stack of n rows of w entries, X (n, w, L, m)
# with v and prec (n, w).


def _stack(ctx: Completion, entries) -> tuple:
    """The stack of a list of RamLaurent entries."""
    X = np.zeros((len(entries), max([x.coeffs.shape[0] for x in entries] + [1]), ctx.spec.m),
                 dtype=np.int64)
    for i, x in enumerate(entries):
        X[i, : x.coeffs.shape[0]] = x.coeffs
    return (X, np.array([x.valuation() for x in entries], dtype=np.int64),
            np.array([x.prec for x in entries], dtype=np.int64))


def _cat(stacks) -> tuple:
    """The stacks one after another, in one frame of their greatest width."""
    X = np.zeros((sum(len(v) for _, v, _ in stacks), max(Y.shape[1] for Y, _, _ in stacks),
                  stacks[0][0].shape[2]), dtype=np.int64)
    i = 0
    for Y, v, _ in stacks:
        X[i : i + len(v), : Y.shape[1]] = Y
        i += len(v)
    return (X, np.concatenate([v for _, v, _ in stacks]),
            np.concatenate([p for _, _, p in stacks]))


def _windows(Xp: np.ndarray, start: np.ndarray, W: int) -> np.ndarray:
    """Xp[i, start[i] : start[i] + W] for every i, in one gather from a strided
    view of the C-contiguous Xp (N, F, m) whose row j for entry i is
    Xp[i, j : j + W]; every window must lie inside Xp."""
    N, F, m = Xp.shape
    s0, s1, s2 = Xp.strides
    view = np.ndarray((N, F - W + 1, W, m), dtype=Xp.dtype, buffer=Xp, strides=(s0, s1, s1, s2))
    return view[np.arange(N), start]


def _stack_mul(ctx: Completion, a: tuple, ia: np.ndarray, b: tuple, ib: np.ndarray) -> tuple:
    """RamLaurent.__mul__ on the N pairs (a[ia[i]], b[ib[i]]) at once: one
    batch_mul over the pairs aligned at their valuations, product i cut at
    its mul_prec (mul_precs), and only the rows the products keep gathered.
    A pair with a term-free factor gives a term-free product, the exact zero
    when mul_precs says so.  A product of two entries with terms has
    valuation va + vb: its first row is the product of two nonzero field
    elements."""
    (A, va, pa), (B, vb, pb) = a, b
    va, pa, vb, pb = va[ia], pa[ia], vb[ib], pb[ib]
    prec = mul_precs(pa, va, pb, vb)
    v = np.where((va < pa) & (vb < pb), va + vb, prec)
    n = np.minimum(prec - v, A.shape[1] + B.shape[1] - 1)
    L = max(int(n.max()), 1)
    C = batch_mul(ctx, A[ia, :L], B[ib, :L], L)
    C *= (np.arange(L) < n[:, None])[:, :, None]
    return C, v, prec


def _stack_sub(ctx: Completion, a: tuple, b: tuple) -> tuple:
    """a[i] - sum_j b[j * N + i] entry by entry, for a of N entries (rows in
    any shape (..., L, m)) and b of g * N.  A chain of RamLaurent
    subtractions keeps the exact difference below the least precision of
    its terms, in whatever order it is taken, since no link cuts below it.
    So every term is placed in one frame from the least valuation with
    terms (one _windows gather), no wider than that precision, the frame is
    summed once and cut at the precision, and each entry is realigned at
    its first nonzero row, which gives its valuation (the precision when
    there is none)."""
    (A, va, pa), (B, vb, pb) = a, b
    N, m = va.size, ctx.spec.m
    v = np.concatenate([va.ravel(), vb]).reshape(-1, N)
    p = np.concatenate([pa.ravel(), pb]).reshape(-1, N)
    has = v < p
    prec = p.min(axis=0)
    lo = np.where(has, v, PREC_EXACT).min(axis=0)
    d = np.where(has, v - lo, 0)
    s = int(d.max())
    W = max(min(s + max(A.shape[-2], B.shape[1]), int((prec - lo).max())), 1)
    Xp = np.zeros((d.size, s + W, m), dtype=np.int64)
    w = min(A.shape[-2], W)
    Xp[:N].reshape(A.shape[:-2] + Xp.shape[1:])[..., s : s + w, :] = A[..., :w, :]
    w = min(B.shape[1], W)
    np.negative(B[:, :w], out=Xp[N:, s : s + w])
    S = np.zeros((N, 2 * W, m), dtype=np.int64)
    np.sum(_windows(Xp, s - d.ravel(), W).reshape(-1, N, W, m), axis=0, out=S[:, :W])
    S[:, :W] %= ctx.p
    S[:, :W] *= (np.arange(W) < (prec - lo)[:, None])[:, :, None]
    nz = S[:, :W].any(axis=2)
    first = nz.argmax(axis=1)
    has = nz[np.arange(N), first]
    width = max(int((W - nz[:, ::-1].argmax(axis=1) - first)[has].max(initial=0)), 1)
    return _windows(S, first, width), np.where(has, lo + first, prec), prec


def _eliminate(ctx: Completion, frame: list, col: int, R, c0: int, f: tuple):
    """frame[r][c] -= f[i] * frame[col][c] for the i-th row r of R and every
    column c >= c0 of a frame [X, V, P] of shape (n, w): one _stack_mul and
    one _stack_sub.  The frame is widened in place when the rows need it."""
    X, V, P = frame
    k, nr = X.shape[1] - c0, len(f[1])
    if not k:
        return
    prod = _stack_mul(ctx, f, np.repeat(np.arange(nr), k),
                      (X[col, c0:], V[col, c0:], P[col, c0:]), np.tile(np.arange(k), nr))
    S, v, p = _stack_sub(ctx, (X[R, c0:], V[R, c0:], P[R, c0:]), prod)
    if S.shape[1] > X.shape[2]:
        frame[0] = X = np.pad(X, ((0, 0), (0, 0), (0, S.shape[1] - X.shape[2]), (0, 0)))
    X[R, c0:, : S.shape[1]] = S.reshape(nr, k, -1, X.shape[3])
    X[R, c0:, S.shape[1] :] = 0
    V[R, c0:], P[R, c0:] = v.reshape(nr, k), p.reshape(nr, k)


def ram_solve(rows, rhs, wp: int):
    """Solve a small linear system with RamLaurent entries by elimination.

    rhs is one right-hand side (n entries), giving one solution, or a list
    of them, giving a list of solutions.  Pivots depend on the matrix alone:
    per column the largest-norm entry with terms, the first row on ties;
    raises on term-free pivot columns (the system is singular to working
    precision).

    The matrix and the K right-hand sides are two stacks, of shape (n, n)
    and (n, K): two frames, because an exact pivot makes the matrix rows
    exact and long while the right-hand sides stay truncated.  Each column
    takes one _stack_mul for the multipliers (entry times the pivot inverse,
    RamLaurent.inv(wp) by its stack_inv; rows whose entry is term-free are
    skipped) and, in each frame, one _stack_mul for every (multiplier,
    pivot-row entry) pair right of the column and one _stack_sub
    (_eliminate).  The entries of the pivot column below the pivot are
    never read again and are not formed.  Back substitution takes one
    _stack_mul, one _stack_sub and one scaling by the pivot inverse per row,
    for all K right-hand sides at once.  Each step is RamLaurent's
    arithmetic entry by entry, so every solution equals that of the
    element-wise elimination, which tests/oracles.py keeps as
    ram_solve_reference.
    """
    n = len(rows)
    several = bool(rhs) and not isinstance(rhs[0], RamLaurent)
    bs = [list(b) for b in rhs] if several else [list(rhs)]
    if any(len(r) != n for r in rows) or any(len(b) != n for b in bs):
        raise ShapeMismatchError("system must be square with matching rhs")
    if not n:
        return [[] for _ in bs] if several else []
    ctx, K, m = rows[0][0].ctx, len(bs), rows[0][0].ctx.spec.m
    frames = []
    for entries, w in (([x for row in rows for x in row], n), ([b[r] for r in range(n) for b in bs], K)):
        X, V, P = _stack(ctx, entries)
        frames.append([X.reshape(n, w, -1, m), V.reshape(n, w), P.reshape(n, w)])
    mat, rhs_frame = frames
    invs = []
    for col in range(n):
        X, V, P = mat
        live = V[col:, col] < P[col:, col]
        if not live.any():
            raise SingularSystemError(f"no usable pivot in column {col}")
        best = col + int(np.where(live, V[col:, col], PREC_EXACT).argmin())
        for Y in frames[0] + frames[1]:
            Y[[col, best]] = Y[[best, col]]
        # RamLaurent.inv's one row: an inverse has terms, from its first row on
        invs.append(stack_inv(ctx, X[col, col][None], int(V[col, col]), int(P[col, col]), wp))
        R = col + 1 + (V[col + 1 :, col] < P[col + 1 :, col]).nonzero()[0]
        nr = R.size
        if not nr:
            continue
        if nr == n - col - 1:
            R = slice(col + 1, n)  # every row: views instead of copies
        f = _stack_mul(ctx, (X[R, col], V[R, col], P[R, col]), np.arange(nr),
                       invs[col], np.zeros(nr, dtype=np.int64))
        _eliminate(ctx, mat, col, R, col + 1, f)
        _eliminate(ctx, rhs_frame, col, R, 0, f)
    (X, V, P), (B, BV, BP) = frames
    out = [None] * n
    to_inv = np.zeros(K, dtype=np.int64)
    for r in range(n - 1, -1, -1):
        acc = (B[r], BV[r], BP[r])
        if r < n - 1:
            c = n - 1 - r
            prod = _stack_mul(ctx, (X[r, r + 1 :], V[r, r + 1 :], P[r, r + 1 :]),
                              np.repeat(np.arange(c), K), _cat(out[r + 1 :]), np.arange(c * K))
            acc = _stack_sub(ctx, acc, prod)
        out[r] = _stack_mul(ctx, acc, np.arange(K), invs[r], to_inv)
    sols = [[None] * n for _ in bs]
    for r, (S, v, p) in enumerate(out):
        S = S.astype(np.int8)
        for k, (vk, pk) in enumerate(zip(v.tolist(), p.tolist())):
            sols[k][r] = RamLaurent(ctx, vk, S[k], pk)
    return sols if several else sols[0]
