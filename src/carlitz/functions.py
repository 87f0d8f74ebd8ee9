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
    SizeLimitError,
)
from .fields import DEG_LIMIT, GFPoly, carlitz_dl, enumerate_A
from .laurent import (NEG_INF, PREC_EXACT, Completion, RamLaurent, batch_mul, stack_inv,
                      sum_blocks)
from .tate import TateElem, mul_profile, tate_const, tate_zero


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
    """Kept term indices and positive-exponent slack for sum z^{q^i}/d_i."""
    keep = []
    slack = 0
    i = 0
    while True:
        tv = ctx.q**i * (v + i * ctx.ram)
        if tv >= wp:
            break
        keep.append(i)
        slack = max(slack, -tv)
        i += 1
        if ctx.q**i > DEG_LIMIT:
            raise SizeLimitError("argument too large for the exponential guard")
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
        acc = acc + (z.qpow(i) * _inv_d(ctx, i, wp + slack)).truncate(wp)
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


def _sum_coeffs(ctx: Completion, cs: list) -> RamLaurent:
    """Sum of series with one reduction, equal to chaining + over them."""
    return sum_blocks(ctx, [(c.offset, c.coeffs) for c in cs if not c.is_zero()],
                      min(c.prec for c in cs))


def _geometric_mul(A: TateElem, tcap: int, b: int, shift: int, sign: int) -> TateElem:
    """A * sign * sum_k t^k theta^(-(k+shift)*b) for a one-variable A, in O(tcap).

    This is exactly TateElem.__mul__ against that geometric series with its
    cap tcap and tail -(tcap+1+shift)*b: the same keys in the same order, the
    same coefficients and precisions, cap min(A.tcap, tcap), and the product's
    tail rule max(fold, tA + g, tG + gauss(A), tA + tG) with g = -shift*b the
    series' Gauss norm exponent and fold the least v(A[ea]) + (k+shift)*b*ram
    over the pairs whose degree ea + k passes the cap.

    theta = -u^(-ram), so theta^(-n) = (-1)^n u^(n*ram).  The coefficient at
    t^e is the first-order recurrence D[e] = A[e] + theta^(-b) D[e-1] times
    the monomial sign * theta^(-shift*b): each step is a shift by b*ram rows
    and a sign, with no product.  In the frame that moves b*ram rows per step
    the recurrence is a running sum of (-1)^(b*ea) A[ea] placed at row
    A[ea].offset - ea*b*ram, so one int64 buffer carries every D[e].  The
    precision of D[e] follows the same recurrence, P[e] = min(P[e-1] + b*ram,
    prec of A[e] times the monomial), which is mul_prec's least pa + vb over
    the pairs for exponents far below the PREC_EXACT sentinel; it never
    exceeds P[e-1] + b*ram, so rows of the running sum past P[e] are never
    needed again.
    """
    ctx = A.ctx
    ram, p = ctx.ram, ctx.p
    cap = min(A.tcap, tcap)
    step, base = b * ram, shift * b * ram
    lead_neg = (sign < 0) != bool(shift * b % 2)
    # keys in the product's first-appearance order, and the over-cap fold
    low, keys, over = cap + 1, [], None
    for (ea,), c in A.terms.items():
        k = max(0, cap + 1 - ea)
        if k <= tcap:
            v = c.valuation() + k * step + base
            over = v if over is None else min(over, v)
        if ea < low:
            keys.extend(range(ea, low))
            low = ea
    stored = [(ea, c) for (ea,), c in A.terms.items() if ea <= cap and c.coeffs.shape[0]]
    lo = min((c.offset - ea * step for ea, c in stored), default=0)
    hi = max((c.end() - ea * step for ea, c in stored), default=0)
    run = np.zeros((hi - lo, ctx.spec.m), dtype=np.int64)
    first, last = hi - lo, 0  # rows of run that hold a term so far
    r = math.inf  # least pa + vb over the inexact pairs so far
    out = {}
    for e in range(low, cap + 1):
        odd = b % 2 and e % 2  # the sign of theta^(-b*e)
        r += step
        c = A.terms.get((e,))
        if c is not None:
            if not c.is_exact():
                r = min(r, c.prec + base)
            if c.coeffs.shape[0]:
                at = c.offset - e * step - lo
                run[at : at + c.coeffs.shape[0]] += -c.coeffs if odd else c.coeffs
                first, last = min(first, at), max(last, at + c.coeffs.shape[0])
        prec = min(r, PREC_EXACT)
        frame = lo + e * step + base  # u-exponent of row 0 of run at this e
        block = run[first : max(first, min(last, prec - frame))]
        if lead_neg != bool(odd):
            block = -block
        out[(e,)] = RamLaurent(ctx, frame + first, (block % p).astype(np.int8), prec)
    out = {(e,): out[(e,)] for e in keys}
    fold = NEG_INF if over is None else Fraction(-over, ram)
    ta, tb = A.tail_norm_exp, Fraction(-(tcap + 1 + shift) * b)
    tail = max(fold, ta + Fraction(-base, ram), tb + A.gauss_norm_exp(), ta + tb)
    return TateElem(ctx, 1, cap, out, tail)


def omega(ctx: Completion, tcap: int, budget: SeriesBudget) -> TateElem:
    """lambda * prod_{i>=0} (1 - t/theta^{q^i})^{-1} to degree tcap.

    Factor i is the geometric series sum_k t^k theta^(-k q^i), applied by
    _geometric_mul's recurrence, so the product over i costs O(tcap) steps
    per factor.  Factor i first moves a coefficient at u^(ram * q^i - 1),
    the valuation of lambda * t/theta^(q^i), so the factors with ram * q^i
    <= wp are applied and the omitted ones move no row below the working
    precision; the geometric tails give the q^(1/(q-1) - (tcap+1)) bound.
    """
    wp = budget.wp
    key = ("omega", tcap, wp)
    if key not in ctx.cache:
        acc = tate_const(ctx, 1, tcap, ctx.lam())
        i = 0
        while ctx.ram * ctx.q**i <= wp:
            acc = _geometric_mul(acc, tcap, ctx.q**i, 0, 1)
            i += 1
        out = {e: c.truncate(wp) for e, c in acc.terms.items()}
        ctx.cache[key] = TateElem(ctx, 1, tcap, out, acc.tail_norm_exp), i
    value, budget.n_terms["omega"] = ctx.cache[key]
    return value


def agf_f(ctx: Completion, z: RamLaurent, tcap: int, budget: SeriesBudget) -> TateElem:
    """Generating function sum_n (pi z)^{q^n} / ((theta^{q^n} - t) d_n).

    Term n is scal_n = (pi z)^{q^n} / d_n times the geometric series
    sum_k t^k theta^(-(k+1) q^n), applied by _geometric_mul.  Each
    t-coefficient of the sum is one reduction over the terms (_sum_coeffs),
    known to the least precision among them; the tail is the largest tail.
    """
    wp = budget.wp
    q, ram = ctx.q, ctx.ram
    if z.is_exact_zero():
        return tate_zero(ctx, 1, tcap)
    a_w = z.norm_exp() + Fraction(q, q - 1)
    keep = []
    slack = 0
    n = 0
    while True:
        en = ram * q**n * (a_w - n - 1)
        if en <= -wp:
            break
        keep.append(n)
        slack = max(slack, math.ceil(en))
        n += 1
        if q**n > DEG_LIMIT:
            raise SizeLimitError("argument too large for the AGF guard")
    budget.n_terms["agf_f"] = len(keep)
    pi = pi_tilde(ctx, SeriesBudget(wp + slack + q + max(0, -z.valuation()), 0))
    w = pi * z
    parts: dict = {}
    tail = NEG_INF
    for n in keep:
        scal = (w.qpow(n) * _inv_d(ctx, n, wp + slack)).truncate(wp)
        term = _geometric_mul(tate_const(ctx, 1, tcap, scal), tcap, q**n, 1, 1)
        tail = max(tail, term.tail_norm_exp)
        for e, c in term.terms.items():
            parts.setdefault(e, []).append(c)
    return TateElem(ctx, 1, tcap, {e: _sum_coeffs(ctx, cs) for e, cs in parts.items()}, tail)


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
    before any term is formed.  An omitted term moves the t^m coefficient by
    at most q^(c_last - q m), so that coefficient is kept to precision
    p_m = ceil(ram (q m - c_last)).  prod_j = prod_{k<=j} (t - theta^{q^k})^{-1}
    is prod_{j-1} times -sum_i t^i theta^(-(i+1) q^j), applied exactly by
    _geometric_mul.  Its t^m coefficient c is multiplied by beta_j =
    alpha^{q^j} only after truncation at p_m - v(beta_j): the exact products
    run to thousands of rows, of which the final truncation at p_m keeps
    few.  Truncation commutes with sums, and the product is unchanged by:

    Lemma.  For series c and b, an integer P and v_b = b.valuation(),
    (c.truncate(P - v_b) * b).truncate(P) == (c * b).truncate(P), for
    exponents far below the PREC_EXACT sentinel.

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
        if q**stop > DEG_LIMIT:
            raise SizeLimitError("logarithm series guard exceeded")
    c_last = c_at(stop)
    p_m = [math.ceil(ram * (q * m - c_last)) for m in range(tcap + 1)]
    parts = {(0,): [alpha]}
    prod = tate_const(ctx, 1, tcap, ctx.one())
    for j in range(1, stop):
        prod = _geometric_mul(prod, tcap, q**j, 1, -1)
        beta = alpha.qpow(j)
        v_b = beta.valuation()
        for e, c in prod.terms.items():
            parts.setdefault(e, []).append(c.truncate(p_m[e[0]] - v_b) * beta)
    budget.n_terms["papanikolas_L"] = stop - 1
    # the tail only carries degrees above the cap
    out = {e: _sum_coeffs(ctx, cs).truncate(p_m[e[0]]) for e, cs in parts.items()}
    tail = c_exp - q * (tcap + 1)
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


def _monic_rows(ctx: Completion, j: int) -> np.ndarray:
    """(q^j, j*ram + 1, m) coordinates of the monic degree-j embeddings.

    Row r of each entry is the coefficient of u^(r - j*ram), so every entry
    starts at its valuation; enumeration order is that of _monic_block.
    """
    key = ("monic_rows", j)
    if key not in ctx.cache:
        base = -j * ctx.ram
        block = _monic_block(ctx, j)
        rows = np.zeros((len(block), 1 - base, ctx.spec.m), dtype=np.int64)
        for i, (_, emb) in enumerate(block):
            rows[i, emb.offset - base : emb.end() - base] = emb.coeffs
        ctx.cache[key] = rows
    return ctx.cache[key]


def _units(ctx: Completion) -> list:
    return [c for c in ctx.spec.subfield_elements() if not c.is_zero()]


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


def _block_weights(ctx: Completion, j: int, powers: tuple, with_units: bool):
    """Character-weight matrix of a degree-j block, cached per (j, powers).

    Stacked row i is (monic a, unit c) with c running fastest over the units
    (a alone without them); its weight on key e is c^weight * chi(a)[e]
    (chi(a)[e] without units).  Returns (keys, G, mask): G is the (K*m, N*m)
    matrix that contracts stacked F_p coordinate rows into the key
    coefficients through basis_mul_table, mask (K, N) marks nonzero weights.
    """
    key = ("psi_block" if with_units else "L_block", j, powers)
    if key not in ctx.cache:
        keys, W = _block_chars(ctx, j, powers)
        K, _, m = W.shape
        if with_units:
            S = np.stack([ctx.spec.scalar_matrix(c ** sum(powers)) for c in _units(ctx)])
            W = np.einsum("kab,cbd->kacd", W, S).reshape(K, -1, m) % ctx.p
        T = ctx.spec.basis_mul_table.astype(np.int64)
        G = np.einsum("kia,abc->kcib", W, T).reshape(K * m, -1) % ctx.p
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


def _unit_rows(ctx: Completion, j: int) -> np.ndarray:
    """Rows c*a over the degree-j block (a outer, unit c inner), in the frame
    of _monic_rows."""
    key = ("unit_rows", j)
    if key not in ctx.cache:
        S = np.stack([ctx.spec.scalar_matrix(c) for c in _units(ctx)])
        rows = np.einsum("nlb,cbd->ncld", _monic_rows(ctx, j), S) % ctx.p
        ctx.cache[key] = rows.reshape(-1, rows.shape[2], rows.shape[3])
    return ctx.cache[key]


def _psi_denominators(ctx: Completion, js: list, z: RamLaurent):
    """Rows z - c*a over the degree blocks js, in order, in one frame (D, lo),
    truncated at z's precision like the series they stand for.  Block js[i]
    holds rows starts[i] .. starts[i + 1] of D."""
    CAs = [_unit_rows(ctx, j) for j in js]
    bases = [-j * ctx.ram for j in js]
    lo = min(bases) if z.is_zero() else min(min(bases), z.offset)
    hi = min(max(max(b + CA.shape[1] for b, CA in zip(bases, CAs)), z.end()), z.prec)
    starts = np.cumsum([0] + [CA.shape[0] for CA in CAs])
    D = np.zeros((starts[-1], max(hi - lo, 0), ctx.spec.m), dtype=np.int64)
    for r0, base, CA in zip(starts, bases, CAs):
        w = min(CA.shape[1], hi - base)
        if w > 0:
            D[r0 : r0 + CA.shape[0], base - lo : base - lo + w] -= CA[:, :w]
    if not z.is_zero():
        D[:, z.offset - lo : z.end() - lo] += z.coeffs
    return np.mod(D, ctx.p, out=D), lo, starts


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
    with each lattice block inverted once for all of them.

    The denominators z - c*a do not depend on the powers, so the kept blocks
    of every tuple (a prefix 0..J_k, since j + C(j) grows with j) are stacked
    and inverted together: every block below the largest kept J in one
    batched Newton iteration, then J alone.  Below J there are q^J - 1 rows,
    fewer than the (q - 1) * q^J of block J, so no stacked call is larger
    than block J's own; each group's arrays are freed before the next one is
    built.  Every row's inverse depends on that row alone (stack_inv), so the
    stacking changes no coefficient.  Each tuple then contracts its own kept
    blocks against its character weights c^weight * chi(a).  Raises what
    psi would raise for the first tuple, in list order, that fails.
    n_terms["psi"] records the inverted blocks.
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
    parts = [[] for _ in family]
    if a0 is None and not all(map(any, family)):
        zi = z.inv(wp)
        for powers, out in zip(family, parts):
            if not any(powers):
                out.append((((0,) * s,), zi.offset, zi.coeffs[None], np.array([zi.prec])))
    for group in (union[:-1], union[-1:]):
        if not group:
            continue
        D, lo, starts = _psi_denominators(ctx, group, z)
        nz = D.any(axis=2)
        spans = list(zip(group, starts[:-1], starts[1:]))
        for j, r0, r1 in spans:
            if not nz[r0:r1].any(axis=1).all():
                raise LatticePoleError(
                    f"z meets the lattice at degree {j} to precision {z.prec}")
        if a0 is not None:
            continue
        X, off, prec = stack_inv(ctx, D, lo, z.prec, wp)
        del D, nz
        for powers, blocks, out in zip(family, kept, parts):
            for j, r0, r1 in spans:
                if j in blocks:
                    out.append(_contract(ctx, _block_weights(ctx, j, powers, True),
                                         X[r0:r1], off[r0:r1], prec[r0:r1]))
        del X, off, prec
    if a0 is not None:
        raise LatticePoleError("z vanishes to working precision (a = 0 pole)")
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
        parts.append(_contract(ctx, _block_weights(ctx, j, powers, False), Xn, off, prec))
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
