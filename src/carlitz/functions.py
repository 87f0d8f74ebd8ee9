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
    LatticePoleError,
    PrecisionExhaustedError,
    ShapeMismatchError,
    SingularSystemError,
    SizeLimitError,
)
from .fields import DEG_LIMIT, GFPoly, carlitz_dl, enumerate_A
from .laurent import NEG_INF, PREC_EXACT, Completion, RamLaurent, batch_mul, stack_inv
from .tate import TateElem, tate_const, tate_zero


@dataclass
class SeriesBudget:
    """Requested absolute precision plus working padding.

    pad absorbs the positive-exponent excursions of intermediate terms and
    the fixed valuation shifts (period factors, lattice inverses); series
    with input-dependent excursions compute an extra slack on top of the
    pad.  n_terms records the truncation index each operation derived.
    """

    prec: int
    pad: int = 16
    n_terms: dict = field(default_factory=dict)

    @property
    def wp(self) -> int:
        return self.prec + self.pad


def default_pad(q: int) -> int:
    """Working padding past the requested precision: 4 * ram + 2q + 8, where
    ram = q - 1 is the ramification index of the completion."""
    return 4 * (q - 1) + 2 * q + 8


def default_budget(ctx: Completion, prec: int) -> SeriesBudget:
    return SeriesBudget(prec, default_pad(ctx.q))


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
        th_inv = ctx.theta().inv()
        prod = ctx.one()
        i = 1
        while ctx.ram * (ctx.q**i - 1) < wp:
            x = ctx.theta() * th_inv ** (ctx.q**i)  # theta^{1-q^i}, exact monomial
            prod = (prod * (ctx.one() - x)).truncate(wp)
            i += 1
        budget.n_terms["pi_tilde"] = i - 1
        lam_q = ctx.lam() ** ctx.q
        ctx.cache[key] = -(lam_q * prod.inv(wp))
    return ctx.cache[key]


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


def _geometric(ctx: Completion, tcap: int, base_exp: int, shift: int, sign: int) -> TateElem:
    """sign * sum_k t^k theta^(-(k+shift) * base_exp) as a capped element.

    theta = -u^(-ram), so theta^(-n) = (-1)^n u^(n * ram): each term is one
    exact monomial, built directly.
    """
    c = ctx.spec.one if sign > 0 else -ctx.spec.one
    terms = {}
    for k in range(tcap + 1):
        n = (k + shift) * base_exp
        terms[(k,)] = ctx.from_field(-c if n % 2 else c, n * ctx.ram)
    tail = Fraction(-(tcap + 1 + shift) * base_exp)
    return TateElem(ctx, 1, tcap, terms, tail)


def omega(ctx: Completion, tcap: int, budget: SeriesBudget) -> TateElem:
    """lambda * prod_{i>=0} (1 - t/theta^{q^i})^{-1} to degree tcap.

    Omitted factors only move stored coefficients below the working
    precision; the geometric tails give the q^(1/(q-1) - (tcap+1)) bound.
    """
    wp = budget.wp
    key = ("omega", tcap, wp)
    if key not in ctx.cache:
        acc = tate_const(ctx, 1, tcap, ctx.lam())
        i = 0
        while ctx.ram * ctx.q**i < wp:
            acc = acc * _geometric(ctx, tcap, ctx.q**i, 0, 1)
            i += 1
        budget.n_terms["omega"] = i
        out = {e: c.truncate(wp) for e, c in acc.terms.items()}
        ctx.cache[key] = TateElem(ctx, 1, tcap, out, acc.tail_norm_exp)
    return ctx.cache[key]


def agf_f(ctx: Completion, z: RamLaurent, tcap: int, budget: SeriesBudget) -> TateElem:
    """Generating function sum_n (pi z)^{q^n} / ((theta^{q^n} - t) d_n)."""
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
    acc = tate_zero(ctx, 1, tcap)
    for n in keep:
        scal = (w.qpow(n) * _inv_d(ctx, n, wp + slack)).truncate(wp)
        acc = acc + _geometric(ctx, tcap, q**n, 1, 1).scalar_mul(scal)
    return acc


def _tate_inv(A: TateElem, wp: int) -> TateElem:
    """Newton inverse of a capped element with invertible constant term.

    Converges when the non-constant part has Gauss norm below the constant
    coefficient's; iteration stops once the residual's stored part sinks to
    the working precision or to the inherent tail floor.
    """
    ctx = A.ctx
    c0 = A.coeff((0,) * A.s)
    if c0.is_zero():
        raise PrecisionExhaustedError("constant term vanishes; no capped inverse")
    one = tate_const(ctx, A.s, A.tcap, ctx.one())
    X = tate_const(ctx, A.s, A.tcap, c0.inv(wp + 2 * abs(c0.valuation()) + 2))
    target = Fraction(-wp, ctx.ram)
    for _ in range(60):
        E = one - A * X
        g = E.gauss_norm_exp()
        if g <= max(target, E.tail_norm_exp):
            # remaining error is X * sum_{k>=1} E^k; widen the tail to cover it
            err = max(target, E.tail_norm_exp, g) + X.gauss_norm_exp()
            return TateElem(ctx, A.s, A.tcap, dict(X.terms),
                            max(X.tail_norm_exp, err))
        X = X + X * E
    raise PrecisionExhaustedError("capped inverse did not converge")


def omega_inv(ctx: Completion, tcap: int, budget: SeriesBudget) -> TateElem:
    key = ("omega_inv", tcap, budget.wp)
    if key not in ctx.cache:
        ctx.cache[key] = _tate_inv(omega(ctx, tcap, budget), budget.wp)
    return ctx.cache[key]


def chi_t(ctx: Completion, z: RamLaurent, tcap: int, budget: SeriesBudget) -> TateElem:
    """The entire interpolation of a -> a(t): omega^{-1} * agf_f(z)."""
    return omega_inv(ctx, tcap, budget) * agf_f(ctx, z, tcap, budget)


# -- Carlitz logarithm series


def papanikolas_L(ctx: Completion, alpha: RamLaurent, tcap: int,
                  budget: SeriesBudget) -> TateElem:
    """alpha + sum_{j>=1} alpha^{q^j} prod_{k<=j} (t - theta^{q^k})^{-1}.

    Gauss norm of term j is q^{C_j}, C_j = q^j a - (q + ... + q^j) with
    a = log_q|alpha|; C_j decreases iff a < q/(q-1), the convergence region.
    Coefficient of t^m is bounded by q^(c_exp - q m), c_exp = max(a, qa - q),
    which is the decay certificate that later justifies t -> theta.
    """
    wp = budget.wp
    q, ram = ctx.q, ctx.ram
    if alpha.is_exact_zero():
        return tate_zero(ctx, 1, tcap)
    a = alpha.norm_exp()
    if a >= Fraction(q, q - 1):
        raise AlphaTooLargeError(f"|alpha| = q^{a} outside the convergence disk")
    c_exp = max(a, q * a - q)
    acc = tate_const(ctx, 1, tcap, alpha)
    prod = tate_const(ctx, 1, tcap, ctx.one())
    geom_sum = 0
    j = 1
    c_last = None
    while True:
        geom_sum += q**j
        c_j = q**j * a - geom_sum
        if ram * c_j <= -wp:
            c_last = c_j
            break
        prod = prod * _geometric(ctx, tcap, q**j, 1, -1)
        acc = acc + prod.scalar_mul(alpha.qpow(j))
        j += 1
        if q**j > DEG_LIMIT:
            raise SizeLimitError("logarithm series guard exceeded")
    budget.n_terms["papanikolas_L"] = j - 1
    # an omitted term j >= stop moves the t^m coefficient by at most
    # q^(c_last - q m), so record that in the per-coefficient precision;
    # the tail only carries degrees above the cap
    out = {}
    for e, c in acc.terms.items():
        p_m = math.ceil(ram * (q * e[0] - c_last))
        out[e] = c.truncate(p_m)
    tail = c_exp - q * (tcap + 1)
    return TateElem(ctx, 1, tcap, out, tail, decay=(q, c_exp))


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


# Block tables that depend on the tower alone, shared by every Completion
# over it (verify builds a new Completion for each check).
_TOWER_CACHE: dict = {}


def _tower_cache(ctx: Completion) -> dict:
    return _TOWER_CACHE.setdefault(ctx.spec, {})


def _monic_rows(ctx: Completion, j: int) -> np.ndarray:
    """(q^j, j*ram + 1, m) coordinates of the monic degree-j embeddings.

    Row r of each entry is the coefficient of u^(r - j*ram), so every entry
    starts at its valuation; enumeration order is that of _monic_block.
    """
    cache = _tower_cache(ctx)
    key = ("monic_rows", j)
    if key not in cache:
        base = -j * ctx.ram
        block = _monic_block(ctx, j)
        rows = np.zeros((len(block), 1 - base, ctx.spec.m), dtype=np.int64)
        for i, (_, emb) in enumerate(block):
            rows[i, emb.offset - base : emb.end() - base] = emb.coeffs
        cache[key] = rows
    return cache[key]


def _units(ctx: Completion) -> list:
    return [c for c in ctx.spec.subfield_elements() if not c.is_zero()]


def _block_chars(ctx: Completion, j: int, powers: tuple):
    """(keys, C) for a degree-j block, cached per (j, powers): C (K, q^j, m)
    holds the coordinates of chi(a)[e], the coefficients of
    prod_i a(t_i)^{r_i}, with keys in first-appearance order."""
    cache = _tower_cache(ctx)
    key = ("block_chars", j, powers)
    if key not in cache:
        chis = [_char_coeffs(ctx, a, powers) for a, _ in _monic_block(ctx, j)]
        keys = tuple(dict.fromkeys(e for chi in chis for e in chi))
        slot = {e: k for k, e in enumerate(keys)}
        C = np.zeros((len(keys), len(chis), ctx.spec.m), dtype=np.int64)
        for ai, chi in enumerate(chis):
            for e, coef in chi.items():
                C[slot[e], ai] = coef.coords
        cache[key] = (keys, C)
    return cache[key]


def _block_weights(ctx: Completion, j: int, powers: tuple, with_units: bool):
    """Character-weight matrix of a degree-j block, cached per (j, powers).

    Stacked row i is (monic a, unit c) with c running fastest over the units
    (a alone without them); its weight on key e is c^weight * chi(a)[e]
    (chi(a)[e] without units).  Returns (keys, G, mask): G is the (K*m, N*m)
    matrix that contracts stacked F_p coordinate rows into the key
    coefficients through basis_mul_table, mask (K, N) marks nonzero weights.
    """
    cache = _tower_cache(ctx)
    key = ("psi_block" if with_units else "L_block", j, powers)
    if key not in cache:
        keys, W = _block_chars(ctx, j, powers)
        K, _, m = W.shape
        if with_units:
            S = np.stack([ctx.spec.scalar_matrix(c ** sum(powers)) for c in _units(ctx)])
            W = np.einsum("kab,cbd->kacd", W, S).reshape(K, -1, m) % ctx.p
        T = ctx.spec.basis_mul_table.astype(np.int64)
        G = np.einsum("kia,abc->kcib", W, T).reshape(K * m, -1) % ctx.p
        cache[key] = (keys, G, W.any(axis=2))
    return cache[key]


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


def _psi_denominators(ctx: Completion, j: int, z: RamLaurent):
    """Rows z - c*a over the degree-j block (a outer, unit c inner) in one
    frame (D, lo), truncated at z's precision like the series they stand for."""
    cache = _tower_cache(ctx)
    key = ("unit_rows", j)
    if key not in cache:
        S = np.stack([ctx.spec.scalar_matrix(c) for c in _units(ctx)])
        rows = np.einsum("nlb,cbd->ncld", _monic_rows(ctx, j), S) % ctx.p
        cache[key] = rows.reshape(-1, rows.shape[2], rows.shape[3])
    CA = cache[key]
    base = -j * ctx.ram
    lo = base if z.is_zero() else min(base, z.offset)
    hi = min(max(base + CA.shape[1], z.end()), z.prec)
    D = np.zeros((CA.shape[0], max(hi - lo, 0), ctx.spec.m), dtype=np.int64)
    w = min(CA.shape[1], hi - base)
    if w > 0:
        D[:, base - lo : base - lo + w] -= CA[:, :w]
    if not z.is_zero():
        D[:, z.offset - lo : z.end() - lo] += z.coeffs
    return D % ctx.p, lo


# -- the lattice sums


def psi(ctx: Completion, s: int, z: RamLaurent, degcap: int, tcap: int,
        budget: SeriesBudget, powers=None) -> TateElem:
    """sum over deg a < degcap of a(t_1)^{r_1}...a(t_s)^{r_s}/(z - a).

    powers defaults to all ones; a zero entry drops that variable's character
    factor (subset sums).  With total weight zero the a = 0 term survives and
    is kept.  Blocks are summed ascending by degree; once q^j exceeds |z| a
    block is bounded by q^{-(j + C(j))} (series expansion in z/a plus the
    coordinate cancellation bound) and blocks below the working precision are
    folded into the tail.  Each kept block stacks its denominators z - c*a,
    inverts them in one batched Newton iteration and contracts the inverses
    against the cached character weights c^weight * chi(a).
    """
    wp = budget.wp
    q, ram = ctx.q, ctx.ram
    if s < 0 or degcap < 1:
        raise ShapeMismatchError("need s >= 0 and degcap >= 1")
    if powers is None:
        powers = (1,) * s
    powers = tuple(powers)
    if len(powers) != s or any(p < 0 for p in powers):
        raise ShapeMismatchError("powers must list one exponent >= 0 per variable")
    weight = sum(powers)
    az = z.norm_exp()
    if Fraction(degcap) <= az:
        raise ConfigError(f"degcap {degcap} does not exceed log|z| = {az}")
    parts = []
    if weight == 0:
        if z.is_zero():
            raise LatticePoleError("z vanishes to working precision (a = 0 pole)")
        zi = z.inv(wp)
        parts.append((((0,) * s,), zi.offset, zi.coeffs[None], np.array([zi.prec])))
    # blocks at degree >= degcap obey the same j + C(j) bound, which only grows
    tail = Fraction(-(degcap + _cancel_exp(q, weight, degcap)))
    blocks = []
    for j in range(degcap):
        c_j = _cancel_exp(q, weight, j)
        if Fraction(j) > az and ram * (j + c_j) >= wp + 2:
            tail = max(tail, Fraction(-(j + c_j)))
            continue
        blocks.append(j)
        weights = _block_weights(ctx, j, powers, True)
        D, lo = _psi_denominators(ctx, j, z)
        nz = D.any(axis=2)
        if not nz.any(axis=1).all():
            raise LatticePoleError(
                f"z meets the lattice at degree {j} to precision {z.prec}")
        single = nz.sum(axis=1) == 1 if z.is_exact() else np.zeros(len(D), dtype=bool)
        parts.append(_contract(ctx, weights, *stack_inv(ctx, D, lo, z.prec, wp, single)))
    budget.n_terms["psi"] = blocks
    return TateElem(ctx, s, tcap, _assemble(ctx, parts), tail)


def L_multi(ctx: Completion, s: int, n: int, degcap: int, tcap: int,
            budget: SeriesBudget, powers=None) -> TateElem:
    """sum over monic a, deg a < degcap, of a(t_1)^{r_1}...a(t_s)^{r_s} a^{-n}.

    powers defaults to all ones; the q-th-power character variants feed the
    difference-equation checks.  Block j carries |block| <= q^{-jn - C(j)}.
    Each kept block raises its stacked a to the n-th power, inverts all of
    them in one batched Newton iteration and contracts against chi(a).
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
        rows = _monic_rows(ctx, j)
        # a^n is a single term exactly when a is, and its first wp
        # coefficients fix those of its inverse
        single = rows.any(axis=2).sum(axis=1) == 1
        D, base, k = rows[:, :wp], rows[:, :wp], n - 1
        while k:
            if k & 1:
                D = batch_mul(ctx, D, base, wp)
            k >>= 1
            if k:
                base = batch_mul(ctx, base, base, wp)
        inv = stack_inv(ctx, D, -j * ram * n, PREC_EXACT, wp, single)
        parts.append(_contract(ctx, _block_weights(ctx, j, powers, False), *inv))
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
