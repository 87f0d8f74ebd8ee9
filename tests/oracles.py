"""Reference constructions shared by the test modules; not part of the package."""

import functools
import math
from fractions import Fraction

import numpy as np

from carlitz.cyclotomic import action_at_lam, carlitz_poly
from carlitz.errors import (EmptyPrecisionError, FieldMismatchError, InvariantError,
                            PrecisionExhaustedError, ShapeMismatchError, SingularSystemError)
from carlitz.fields import GFElem, GFPoly, carlitz_dl, enumerate_A, poly_add, poly_mul, poly_trim
from carlitz.laurent import NEG_INF, PREC_EXACT, Completion, RamLaurent
from carlitz.tate import TateElem, _val_floor


def terms(x) -> dict:
    """{key: coefficient} of a TateElem in key order, each built by coeff."""
    return {e: x.coeff(e) for e in x.keys}


class DictTate:
    """TateElem as a dict of RamLaurent coefficients, one per key, every
    operation the per-coefficient RamLaurent one: the reference for the
    frame-based tate.TateElem.

    terms maps exponent tuples (i_1,...,i_s), 0 <= i_j <= tcap, to RamLaurent
    coefficients sharing one completion; the constructor drops exact zeros
    and folds keys past tcap into the tail by their norm.  A product is one
    RamLaurent product and one sum per coefficient pair.
    """

    def __init__(self, ctx, s, tcap, terms, tail_norm_exp=NEG_INF):
        if s < 0 or tcap < 0:
            raise ShapeMismatchError("need s >= 0 and tcap >= 0")
        clean = {}
        tail = tail_norm_exp
        for e, c in terms.items():
            if not (isinstance(e, tuple) and len(e) == s):
                raise ShapeMismatchError(f"exponent {e!r} does not have {s} slots")
            if not isinstance(c, RamLaurent) or c.ctx is not ctx:
                raise FieldMismatchError("coefficient from another completion")
            if any(k < 0 for k in e):
                raise ShapeMismatchError(f"negative exponent in {e!r}")
            if c.is_exact_zero():
                continue
            if any(k > tcap for k in e):
                tail = max(tail, c.norm_exp())
                continue
            clean[e] = c
        self.ctx, self.s, self.tcap = ctx, s, tcap
        self.terms = clean
        self.tail_norm_exp = tail

    @classmethod
    def of(cls, x: TateElem) -> "DictTate":
        return cls(x.ctx, x.s, x.tcap, terms(x), x.tail_norm_exp)

    def coeff(self, e):
        if len(e) != self.s:
            raise ShapeMismatchError(f"exponent {e!r} does not have {self.s} slots")
        if any(k > self.tcap for k in e):
            raise EmptyPrecisionError(f"exponent {e!r} beyond the degree cap {self.tcap}")
        return self.terms.get(tuple(e), self.ctx.zero())

    def gauss_norm_exp(self):
        return max((c.norm_exp() for c in self.terms.values()), default=NEG_INF)

    def prec_floor(self):
        out = min((c.prec for c in self.terms.values()), default=PREC_EXACT)
        if self.tail_norm_exp != NEG_INF:
            out = min(out, _val_floor(self.tail_norm_exp, self.ctx.ram))
        return out

    def levels(self):
        """verify._levels of the element, term by term."""
        lvl = PREC_EXACT
        for c in self.terms.values():
            lvl = min(lvl, c.prec if c.is_zero() else c.valuation())
        if self.tail_norm_exp != NEG_INF:
            lvl = min(lvl, _val_floor(self.tail_norm_exp, self.ctx.ram))
        return lvl, self.prec_floor()

    def _combine(self, other, sign):
        merged = dict(self.terms)
        for e, c in other.terms.items():
            prev = merged.get(e)
            if sign > 0:
                merged[e] = c if prev is None else prev + c
            else:
                merged[e] = -c if prev is None else prev - c
        return DictTate(self.ctx, self.s, min(self.tcap, other.tcap), merged,
                        max(self.tail_norm_exp, other.tail_norm_exp))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return DictTate(self.ctx, self.s, self.tcap, {e: -c for e, c in self.terms.items()},
                        self.tail_norm_exp)

    def __mul__(self, other):
        if isinstance(other, RamLaurent):
            return self.scalar_mul(other)
        if isinstance(other, GFElem):
            return self.scalar_mul(self.ctx.from_field(other))
        cap = min(self.tcap, other.tcap)
        out = {}
        fold = NEG_INF
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if any(k > cap for k in e):
                    fold = max(fold, ca.norm_exp() + cb.norm_exp())
                    continue
                prod = ca * cb
                prev = out.get(e)
                out[e] = prod if prev is None else prev + prod
        ta, tb = self.tail_norm_exp, other.tail_norm_exp
        tail = max(fold, ta + other.gauss_norm_exp(), tb + self.gauss_norm_exp(), ta + tb)
        return DictTate(self.ctx, self.s, cap, out, tail)

    def scalar_mul(self, b):
        if b.is_exact_zero():
            return DictTate(self.ctx, self.s, self.tcap, {})
        return DictTate(self.ctx, self.s, self.tcap, {e: c * b for e, c in self.terms.items()},
                        self.tail_norm_exp + b.norm_exp())

    def tau(self):
        return DictTate(self.ctx, self.s, self.tcap,
                        {e: c.qpow(1) for e, c in self.terms.items()},
                        self.tail_norm_exp * self.ctx.q)

    def phi(self, i):
        out, tail = {}, self.tail_norm_exp
        for e, c in self.terms.items():
            lifted = e[:i] + (self.ctx.q * e[i],) + e[i + 1 :]
            if lifted[i] > self.tcap:
                tail = max(tail, c.norm_exp())
                continue
            out[lifted] = c
        return DictTate(self.ctx, self.s, self.tcap, out, tail)

    def ev(self, roots):
        acc = self.ctx.zero()
        for e in sorted(self.terms):
            f = self.ctx.spec.one
            for zi, k in zip(roots, e):
                if k:
                    f = f * zi**k
            acc = acc + self.terms[e].scale(f)
        if self.tail_norm_exp != NEG_INF:
            acc = acc.truncate(_val_floor(self.tail_norm_exp, self.ctx.ram))
        return acc

    def embed_vars(self, s_new, positions):
        out = {}
        for e, c in self.terms.items():
            lifted = [0] * s_new
            for j, k in enumerate(e):
                lifted[positions[j]] = k
            out[tuple(lifted)] = c
        return DictTate(self.ctx, s_new, self.tcap, out, self.tail_norm_exp)

    def __eq__(self, other):
        return (self.ctx is other.ctx and self.s == other.s and self.tcap == other.tcap
                and self.tail_norm_exp == other.tail_norm_exp and self.terms == other.terms)


def tate_poly_t(ctx: Completion, s: int, tcap: int, i: int, a: GFPoly) -> TateElem:
    """Image of a in F_q[t_i]: coefficient k of a becomes the t_i^k term."""
    terms = {}
    for k, c in enumerate(a.coeffs):
        if c.is_zero():
            continue
        e = tuple(k if j == i else 0 for j in range(s))
        terms[e] = ctx.from_field(c)
    return TateElem(ctx, s, tcap, terms)


def linpoly_coeff(spec, f: tuple, j: int) -> GFPoly:
    """Coefficient c_j of Z^{q^j} in the additive polynomial f, a coefficient
    tuple (zero past its end)."""
    if 0 <= j < len(f):
        return f[j]
    return spec.poly([])


def lin_add(spec, f: tuple, g: tuple) -> tuple:
    """f(Z) + g(Z) for additive polynomials as coefficient tuples."""
    return tuple(poly_add(f, g, spec.poly([])))


def lin_compose(spec, f: tuple, g: tuple) -> tuple:
    """f(g(Z)) = sum_j c_j g(Z)^{q^j} for additive polynomials as coefficient
    tuples: g^{q^j} has coefficients g_k^{q^j} at Z^{q^(j+k)}.  Generic
    composition, the reference for the ring law of carlitz_poly, which steps
    through C_theta alone."""
    zero = spec.poly([])
    out = []
    for j, c in enumerate(f):
        if c.is_zero():
            continue
        out = poly_add(out, [zero] * j + [x.qpow(j) * c for x in g], zero)
    return tuple(out)


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
        for e, c in terms(x).items():
            if not c.is_zero() and c.norm_exp() > c_exp - delta * sum(e):
                raise PrecisionExhaustedError(
                    f"stored coefficient at {e} violates the decay certificate")
        err = c_exp - (delta - 1) * (x.tcap + 1)
    th = ctx.theta()
    powers = {0: ctx.one()}
    out: dict = {}
    for e, c in terms(x).items():
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


@functools.lru_cache(maxsize=None)
def _lam_qpow(cf, j: int):
    """lambda^(q^j) by square-and-multiply, once per torsion field and j."""
    return cf.lam ** (cf.spec.q**j)


def action_at_lam_direct(cf, a: GFPoly):
    """sum_j c_j * lambda^(q^j) over the coefficients c_j of C_a, monic or
    not: the reference for action_at_lam, which sums a_i * C_{theta^i}(lambda)
    instead."""
    acc = cf.zero
    for j, c in enumerate(carlitz_poly(cf.spec, a)):
        acc = acc + _lam_qpow(cf, j) * c
    return acc


def carlitz_poly_recursive(spec, a: GFPoly) -> tuple:
    """C_a(Z) by the recursion c_j <- theta c_j + c_{j-1}^q from C_1(Z) = Z,
    run afresh for every a: the reference for carlitz_poly, which reads the
    C_{theta^i} from a table kept once per tower."""
    zero, theta = spec.poly([]), spec.poly([0, 1])
    power = [spec.poly([1])]
    out = []
    for i, c in enumerate(a.idx):
        if i:
            power = [theta * x + y.qpow(1) for x, y in zip(power + [zero], [zero] + power)]
        if c:
            out = poly_add(out, [x.scale(spec.elems[c]) for x in power], zero)
    return tuple(out)


def telescope_depth(spec, d: int):
    """(den, lhs, rhs) of the depth-d telescope identity, built from depth 1
    on its own: suffix products l_{d-1}/l_j without division, the left side
    sum_{j<d} (l_{d-1}/l_j) prod_{k<j} (y - x^{q^k}), the right side
    prod_{1<=j<d} (y - x^{q^j}) and den = l_{d-1}.  The per-depth reference
    for telescope_pair, which builds every depth in one pass."""
    one, zero = spec.poly([1]), spec.poly([])

    def xq(j):
        return spec.poly([0] * spec.q**j + [1])

    suffix = [one] * d
    for j in range(d - 2, -1, -1):
        suffix[j] = (spec.poly([0, 1]) - xq(j + 1)) * suffix[j + 1]
    lhs, prod = [], [one]
    for j in range(d):
        lhs = poly_add(lhs, [suffix[j] * c for c in prod], zero)
        if j < d - 1:
            prod = poly_mul(prod, [-xq(j), one], zero)
    rhs = [one]
    for j in range(1, d):
        rhs = poly_mul(rhs, [-xq(j), one], zero)
    return carlitz_dl(spec, d - 1)[1], tuple(lhs), tuple(rhs)


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
    A_terms = terms(A)
    for (ea,), c in A_terms.items():
        k = max(0, cap + 1 - ea)
        if k <= tcap:
            v = c.valuation() + k * step + base
            over = v if over is None else min(over, v)
        if ea < low:
            keys.extend(range(ea, low))
            low = ea
    stored = [(ea, c) for (ea,), c in A_terms.items() if ea <= cap and c.coeffs.shape[0]]
    lo = min((c.offset - ea * step for ea, c in stored), default=0)
    hi = max((c.end() - ea * step for ea, c in stored), default=0)
    run = np.zeros((hi - lo, ctx.spec.m), dtype=np.int64)
    first, last = hi - lo, 0  # rows of run that hold a term so far
    r = math.inf  # least pa + vb over the inexact pairs so far
    out = {}
    for e in range(low, cap + 1):
        odd = b % 2 and e % 2  # the sign of theta^(-b*e)
        r += step
        c = A_terms.get((e,))
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


# -- GFElem-list polynomials: the references for GFPoly's index kernels.
# Coefficient lists over one tower, low degree first, every operation a
# schoolbook loop over GFElem arithmetic.


def frobenius(x: GFElem, k: int = 1) -> GFElem:
    """x -> x^(q^k)."""
    return x ** (x.field.q**k) if not x.is_zero() else x


def ref_trim(cs) -> list:
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def ref_add(a, b, zero) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(x + y)
    return ref_trim(out)


def ref_mul(a, b, zero) -> list:
    """Schoolbook product; skips zero left factors."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for k, y in enumerate(b):
            out[i + k] = out[i + k] + x * y
    return ref_trim(out)


def ref_divmod(a, b, zero) -> tuple[list, list]:
    """Long division by b made monic; raises ZeroInverseError for b = 0."""
    b = ref_trim(b)
    lead_inv = (b[-1] if b else zero).inv()
    b = [c * lead_inv for c in b]
    rem = ref_trim(a)
    db = len(b) - 1
    quot = [zero] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        quot[i - db] = c
        for k in range(db + 1):
            rem[i - db + k] = rem[i - db + k] - c * b[k]
    return ref_trim(c * lead_inv for c in quot), ref_trim(rem[:db])


def ref_gcd(a, b, zero) -> list:
    """Monic gcd; the empty list when both inputs are zero."""
    a, b = ref_trim(a), ref_trim(b)
    while b:
        a, b = b, ref_divmod(a, b, zero)[1]
    if a:
        inv = a[-1].inv()
        a = [c * inv for c in a]
    return a


def ref_powmod(a, n: int, mod, zero, one) -> list:
    result = ref_divmod([one], mod, zero)[1]
    base = ref_divmod(a, mod, zero)[1]
    while n:
        if n & 1:
            result = ref_divmod(ref_mul(result, base, zero), mod, zero)[1]
        n >>= 1
        if n:
            base = ref_divmod(ref_mul(base, base, zero), mod, zero)[1]
    return result


def ref_eval(cs, x: GFElem) -> GFElem:
    acc = x.field.zero
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def ref_qpow(cs, j: int, zero) -> list:
    """cs(T)^(q^j) = sum of c^(q^j) T^(k q^j), with c^(q^j) by GFElem powers
    (test_differential_qpow_outside_subfield checks it against products)."""
    step = zero.field.q**j
    out = [zero] * (max(len(cs) - 1, 0) * step + 1)
    out[::step] = [frobenius(c, j) for c in cs] or [zero]
    return ref_trim(out)


def ref_is_irreducible(cs) -> bool:
    """Frobenius-gcd criterion over F_q on GFElem lists: T^(q^n) = T mod f,
    and gcd(T^(q^(n/r)) - T, f) = 1 for every prime r dividing n."""
    f = ref_trim(cs)
    n = len(f) - 1
    if n < 1:
        return False
    spec = f[0].field
    zero, one = spec.zero, spec.one
    x = ref_divmod([zero, one], f, zero)[1]
    if ref_powmod(x, spec.q**n, f, zero, one) != x:
        return False
    for r in (k for k in range(2, n + 1) if n % k == 0 and all(k % i for i in range(2, k))):
        u = ref_powmod(x, spec.q ** (n // r), f, zero, one)
        if len(ref_gcd(ref_add(u, [-c for c in x], zero), f, zero)) != 1:
            return False
    return True


# -- the lattice blocks element by element: the references for the stacked
# tables of functions._monic_pows and functions._block_weights.


def monic_block(ctx: Completion, j: int) -> list:
    """(a, embedded a) for every monic degree-j a, in enumerate_A order."""
    return [(a, ctx.embed_poly(a)) for a in enumerate_A(ctx.spec, j, monic=True)]


def char_coeffs(a: GFPoly, powers) -> dict:
    """{e: chi(a)[e]}: the nonzero coefficients of prod_i a(t_i)^{powers[i]},
    keys lexicographic, each a^r by r schoolbook products (ref_mul) of GFElem
    coefficient lists."""
    spec = a.field
    out = {(): spec.one}
    for r in powers:
        pw = [spec.one]
        for _ in range(r):
            pw = ref_mul(pw, list(a.coeffs), spec.zero)
        out = {e + (k,): c * ck for e, c in out.items()
               for k, ck in enumerate(pw) if not ck.is_zero()}
    return out


def ram_solve_reference(rows, rhs, wp: int):
    """functions.ram_solve one RamLaurent at a time: the element-wise
    elimination the stacked solve must reproduce entry for entry.

    rhs is one right-hand side (n entries), giving one solution, or a list
    of them, giving a list of solutions.  The matrix is eliminated once and
    the recorded swaps and multipliers are replayed on every right-hand side;
    pivots depend on the matrix alone.  Pivots on the largest-norm entry per
    column (the first row on ties, term-free entries skipped); raises on
    term-free pivot columns.
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
