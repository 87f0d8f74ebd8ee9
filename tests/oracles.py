"""Reference constructions shared by the test modules; not part of the package."""

import math
from fractions import Fraction

import numpy as np

from carlitz.cyclotomic import action_at_lam, carlitz_poly
from carlitz.errors import InvariantError, PrecisionExhaustedError, ShapeMismatchError
from carlitz.fields import GFPoly, enumerate_A, poly_trim
from carlitz.laurent import NEG_INF, PREC_EXACT, Completion, RamLaurent
from carlitz.tate import TateElem, _val_floor


def tate_poly_t(ctx: Completion, s: int, tcap: int, i: int, a: GFPoly) -> TateElem:
    """Image of a in F_q[t_i]: coefficient k of a becomes the t_i^k term."""
    terms = {}
    for k, c in enumerate(a.coeffs):
        if c.is_zero():
            continue
        e = tuple(k if j == i else 0 for j in range(s))
        terms[e] = ctx.from_field(c)
    return TateElem(ctx, s, tcap, terms)


def linpoly_coeff(f, j: int) -> GFPoly:
    """Coefficient c_j of Z^{q^j} in the additive polynomial f (zero past its end)."""
    if 0 <= j < len(f.coeffs):
        return f.coeffs[j]
    return f.spec.poly([])


def to_pairs(x: RamLaurent) -> list:
    """(u-exponent, field coefficient) of every nonzero stored term of x."""
    spec = x.ctx.spec
    return [(x.offset + r, spec.elem(row)) for r, row in enumerate(x.coeffs) if row.any()]


def im_part(x: RamLaurent) -> RamLaurent:
    """Component of x orthogonal to F_q((1/theta)) inside the ramified field.

    The base completion occupies exactly the u-exponents divisible by q-1
    with coefficients in F_q; everything else is the 'imaginary' part.
    """
    ctx = x.ctx
    out = x.coeffs.copy()
    for r in range(out.shape[0]):
        if (x.offset + r) % ctx.ram == 0:
            out[r, : ctx.spec.e] = 0
    return RamLaurent(ctx, x.offset, out, x.prec)


def im_norm_exp(x: RamLaurent):
    """Exponent b with |x|_im = q^b (Fraction), or -inf when the part vanishes."""
    return im_part(x).norm_exp()


def at_theta(x: TateElem, i: int, decay=None) -> TateElem:
    """Substitute t_i -> theta, producing an element in one variable fewer.

    For a stored polynomial (no tail) this is plain exact arithmetic.  A
    truncated series needs a decay certificate decay = (delta, c_exp),
    |coefficient at total degree m| <= q^(c_exp - delta*m) for every m,
    stored or not: theta-powers grow like q^m, so the discarded degrees only
    stay below budget when the true coefficients decay strictly faster.
    """
    if not 0 <= i < x.s:
        raise ShapeMismatchError(f"variable index {i} out of range for s={x.s}")
    ctx = x.ctx
    err = NEG_INF
    if x.tail_norm_exp != NEG_INF:
        if decay is None:
            raise PrecisionExhaustedError(
                "t -> theta with a nonzero tail bound needs a decay certificate")
        delta, c_exp = decay
        if delta <= 1:
            raise PrecisionExhaustedError(
                f"decay rate {delta} too slow against |theta^m| = q^m")
        for e, c in x.terms.items():
            if not c.is_zero() and c.norm_exp() > c_exp - delta * sum(e):
                raise PrecisionExhaustedError(
                    f"stored coefficient at {e} violates the decay certificate")
        err = c_exp - (delta - 1) * (x.tcap + 1)
    th = ctx.theta()
    powers = {0: ctx.one()}
    out: dict = {}
    for e, c in x.terms.items():
        m = e[i]
        if m not in powers:
            powers[m] = th**m
        val = c * powers[m]
        key = e[:i] + e[i + 1 :]
        prev = out.get(key)
        out[key] = val if prev is None else prev + val
    if err != NEG_INF:
        floor = _val_floor(err, ctx.ram)
        out = {e: c.truncate(floor) for e, c in out.items()}
        if not out:
            out = {(0,) * (x.s - 1): ctx.zero(floor)}
    tail = err if x.s - 1 > 0 else NEG_INF
    return TateElem(ctx, x.s - 1, x.tcap, out, tail)


def action_at_lam_direct(cf, a: GFPoly):
    """sum_j c_j * lambda^(q^j) over the action polynomial of a, monic or
    not, with each lambda^(q^j) raised afresh: the reference for
    action_at_lam."""
    acc = cf.zero
    for j, c in enumerate(carlitz_poly(cf.spec, a).coeffs):
        acc = acc + cf.lam ** (cf.spec.q**j) * c
    return acc


def interpolation_M_per_residue(cf) -> list:
    """M = sum over residues b of chi(b) * C_P(Z) / (Z - C_b(lambda)), one
    Horner synthetic division of chi(b) * C_P(Z) per residue with
    chi(b) != 0: the per-residue reference for interpolation_M."""
    cp = [cf.zero] + [cf.const(c) for c in cf.rho]  # C_P(Z), low degree first
    out = [cf.zero] * (len(cp) - 1)
    for b in enumerate_A(cf.spec, cf.d):
        chi = b.eval(cf.zeta)
        if chi.is_zero():
            continue
        node = action_at_lam(cf, b)
        acc = cp[-1] * chi
        for k in range(len(cp) - 2, -1, -1):
            out[k] = out[k] + acc
            acc = cp[k] * chi + node * acc
        if not acc.is_zero():
            raise InvariantError(f"torsion value of {b!r} is not a root of C_P")
    return poly_trim(out)


def moment_per_residue(cf, k: int):
    """sum over nonzero residues b of (prime * C_b(lambda))^k * chi(b), one
    power per residue: the per-residue reference for the torsion-exact
    moment of thm4-degcoeff."""
    pe = cf.const(cf.prime)
    acc = cf.zero
    for b in enumerate_A(cf.spec, cf.d):
        if not b.is_zero():
            acc = acc + (pe * action_at_lam(cf, b)) ** k * cf.const(b.eval(cf.zeta))
    return acc


def _geometric_mul(A: TateElem, tcap: int, b: int, shift: int, sign: int) -> TateElem:
    """A * sign * sum_k t^k theta^(-(k+shift)*b) for a one-variable A, in O(tcap):
    the product that omega, agf_f and papanikolas_L once formed term by term,
    kept as the reference for functions._geometric_rows.

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
