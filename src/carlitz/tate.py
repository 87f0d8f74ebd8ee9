"""Truncated polynomials in t_1..t_s over the ramified Laurent completion.

An element stores finitely many monomial coefficients (one RamLaurent per
multi-exponent, every exponent capped at tcap) together with a rational
exponent bounding the Gauss norm of everything that was thrown away.  All
operations keep that tail bound sound, so downstream identity checks can
always convert it into a residual-valuation budget.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import (
    DuplicateNodesError,
    EmptyPrecisionError,
    FieldMismatchError,
    NotIrreducibleError,
    PrecisionExhaustedError,
    RootMismatchError,
    ShapeMismatchError,
)
from .fields import GFElem
from .laurent import (NEG_INF, PREC_EXACT, Completion, RamLaurent, left_map, mul_prec,
                      pair_mul)


def _val_floor(exp_bound, ram: int) -> int:
    """Certified valuation floor from a norm-exponent bound |x| <= q^exp."""
    return math.ceil(-Fraction(exp_bound) * ram)


def _sum_blocks(ctx: Completion, blocks: list, prec: int) -> RamLaurent:
    """sum of u^off * block over (off, block) pairs of raw int64 blocks, + O(u^prec)."""
    if not blocks:
        return ctx.zero(prec)
    lo = min(off for off, _ in blocks)
    buf = np.zeros((max(off + b.shape[0] for off, b in blocks) - lo, ctx.spec.m),
                   dtype=np.int64)
    for off, b in blocks:
        buf[off - lo : off - lo + b.shape[0]] += b
    return RamLaurent(ctx, lo, (buf % ctx.p).astype(np.int8), prec)


class TateElem:
    """Polynomial part of a Tate-algebra element plus a tail-norm bound.

    terms maps exponent tuples (i_1,...,i_s), 0 <= i_j <= tcap, to RamLaurent
    coefficients sharing one completion.  tail_norm_exp is b such that the
    discarded (higher-degree) part has Gauss norm <= q^b; NEG_INF means the
    stored polynomial is the whole element.  decay, when present, is a pair
    (delta, c_exp) certifying |coefficient at total degree m| <= q^(c_exp -
    delta*m) for every m, stored or not; it is what makes the substitution
    t -> theta of a truncated series sound.
    """

    __slots__ = ("ctx", "s", "tcap", "terms", "tail_norm_exp", "decay")

    def __init__(self, ctx: Completion, s: int, tcap: int, terms: dict,
                 tail_norm_exp=NEG_INF, decay=None):
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
                # constructor-level fold: callers may hand us over-cap terms
                tail = max(tail, c.norm_exp())
                continue
            clean[e] = c
        self.ctx = ctx
        self.s = s
        self.tcap = tcap
        self.terms = clean
        self.tail_norm_exp = tail
        self.decay = decay

    # -- views

    def coeff(self, e: tuple) -> RamLaurent:
        """Stored coefficient at e; exact zero if the slot is empty."""
        if len(e) != self.s:
            raise ShapeMismatchError(f"exponent {e!r} does not have {self.s} slots")
        if any(k > self.tcap for k in e):
            raise EmptyPrecisionError(f"exponent {e!r} beyond the degree cap {self.tcap}")
        return self.terms.get(tuple(e), self.ctx.zero())

    def gauss_norm_exp(self):
        """Max coefficient norm exponent over stored terms (NEG_INF if none)."""
        out = NEG_INF
        for c in self.terms.values():
            out = max(out, c.norm_exp())
        return out

    def norm_bound_exp(self):
        return max(self.gauss_norm_exp(), self.tail_norm_exp)

    def prec_floor(self) -> int:
        out = PREC_EXACT
        for c in self.terms.values():
            out = min(out, c.prec)
        if self.tail_norm_exp != NEG_INF:
            out = min(out, _val_floor(self.tail_norm_exp, self.ctx.ram))
        return out

    def exponents(self) -> list:
        return sorted(self.terms)

    # -- ring structure

    def _check(self, other: "TateElem"):
        if self.ctx is not other.ctx:
            raise FieldMismatchError("elements from different completions")
        if self.s != other.s:
            raise ShapeMismatchError(f"variable counts differ: {self.s} vs {other.s}")

    def __add__(self, other: "TateElem") -> "TateElem":
        self._check(other)
        cap = min(self.tcap, other.tcap)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            prev = merged.get(e)
            merged[e] = c if prev is None else prev + c
        return TateElem(self.ctx, self.s, cap, merged,
                        max(self.tail_norm_exp, other.tail_norm_exp))

    def __neg__(self) -> "TateElem":
        return TateElem(self.ctx, self.s, self.tcap,
                        {e: -c for e, c in self.terms.items()}, self.tail_norm_exp,
                        self.decay)

    def __sub__(self, other: "TateElem") -> "TateElem":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RamLaurent):
            return self.scalar_mul(other)
        if isinstance(other, GFElem):
            return self.scalar_mul(self.ctx.from_field(other))
        if not isinstance(other, TateElem):
            return NotImplemented
        self._check(other)
        ctx = self.ctx
        cap = min(self.tcap, other.tcap)
        # one pass over the pairs: exponents, precisions and the over-cap
        # fold in ints; the raw product blocks of the pairs that land on one
        # exponent are summed and reduced once.  Truncating that sum at the
        # least pair precision equals summing the products each truncated
        # at its own, so every coefficient is RamLaurent.__mul__'s sum.
        right = [(eb, cb.offset, cb.prec, cb.valuation(), cb.coeffs.astype(np.int64))
                 for eb, cb in other.terms.items()]
        acc: dict = {}
        over = None
        for ea, ca in self.terms.items():
            pa, va = ca.prec, ca.valuation()
            AT = left_map(ctx, ca.coeffs) if ca.coeffs.shape[0] else None
            for eb, ob, pb, vb, B in right:
                e = tuple(x + y for x, y in zip(ea, eb))
                if any(k > cap for k in e):
                    over = va + vb if over is None else min(over, va + vb)
                    continue
                prec = mul_prec(pa, va, pb, vb)
                slot = acc.get(e)
                if slot is None:
                    slot = acc[e] = [prec, []]
                elif prec < slot[0]:
                    slot[0] = prec
                if AT is not None and B.shape[0]:
                    slot[1].append((ca.offset + ob, pair_mul(ctx, AT, B)))
        out = {e: _sum_blocks(ctx, blocks, prec) for e, (prec, blocks) in acc.items()}
        fold = NEG_INF if over is None else Fraction(-over, ctx.ram)
        ta, tb = self.tail_norm_exp, other.tail_norm_exp
        tail = max(fold,
                   ta + other.gauss_norm_exp(),
                   tb + self.gauss_norm_exp(),
                   ta + tb)
        return TateElem(self.ctx, self.s, cap, out, tail)

    __rmul__ = __mul__

    def scalar_mul(self, b: RamLaurent) -> "TateElem":
        if b.ctx is not self.ctx:
            raise FieldMismatchError("scalar from another completion")
        if b.is_exact_zero():
            return TateElem(self.ctx, self.s, self.tcap, {})
        out = {e: c * b for e, c in self.terms.items()}
        return TateElem(self.ctx, self.s, self.tcap, out,
                        self.tail_norm_exp + b.norm_exp())

    # -- twists

    def tau(self) -> "TateElem":
        """Coefficientwise q-th power; t exponents unchanged."""
        out = {e: c.qpow(1) for e, c in self.terms.items()}
        return TateElem(self.ctx, self.s, self.tcap, out,
                        self.tail_norm_exp * self.ctx.q)

    def phi(self, i: int) -> "TateElem":
        """Substitute t_i -> t_i^q, coefficients untouched."""
        if not 0 <= i < self.s:
            raise ShapeMismatchError(f"variable index {i} out of range for s={self.s}")
        out: dict = {}
        tail = self.tail_norm_exp
        for e, c in self.terms.items():
            lifted = e[:i] + (self.ctx.q * e[i],) + e[i + 1 :]
            if lifted[i] > self.tcap:
                tail = max(tail, c.norm_exp())
                continue
            out[lifted] = c
        return TateElem(self.ctx, self.s, self.tcap, out, tail)

    def ev(self, espec: "EvalSpec") -> RamLaurent:
        """Evaluate t_i = zeta_i.  |zeta_i| = 1, so the tail bound transfers."""
        if espec.s != self.s:
            raise ShapeMismatchError(f"evaluation data has {espec.s} slots, element has {self.s}")
        if espec.field is not self.ctx.spec:
            raise FieldMismatchError("evaluation roots from another tower")
        acc = self.ctx.zero()
        for e in sorted(self.terms):
            f = self.ctx.spec.one
            for zi, k in zip(espec.roots, e):
                if k:
                    f = f * zi**k
            acc = acc + self.terms[e].scale(f)
        if self.tail_norm_exp != NEG_INF:
            acc = acc.truncate(_val_floor(self.tail_norm_exp, self.ctx.ram))
        return acc

    def at_theta(self, i: int) -> "TateElem":
        """Substitute t_i -> theta, producing an element in one variable fewer.

        For a stored polynomial (no tail) this is plain exact arithmetic.  A
        truncated series needs the decay certificate: theta-powers grow like
        q^m, so the discarded degrees only stay below budget when the true
        coefficients decay strictly faster.
        """
        if not 0 <= i < self.s:
            raise ShapeMismatchError(f"variable index {i} out of range for s={self.s}")
        ctx = self.ctx
        err = NEG_INF
        if self.tail_norm_exp != NEG_INF:
            if self.decay is None:
                raise PrecisionExhaustedError(
                    "t -> theta with a nonzero tail bound needs a decay certificate")
            delta, c_exp = self.decay
            if delta <= 1:
                raise PrecisionExhaustedError(
                    f"decay rate {delta} too slow against |theta^m| = q^m")
            for e, c in self.terms.items():
                if not c.is_zero() and c.norm_exp() > c_exp - delta * sum(e):
                    raise PrecisionExhaustedError(
                        f"stored coefficient at {e} violates the decay certificate")
            err = c_exp - (delta - 1) * (self.tcap + 1)
        th = ctx.theta()
        powers = {0: ctx.one()}
        out: dict = {}
        for e, c in self.terms.items():
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
                out = {(0,) * (self.s - 1): ctx.zero(floor)}
        tail = err if self.s - 1 > 0 else NEG_INF
        return TateElem(ctx, self.s - 1, self.tcap, out, tail)

    def embed_vars(self, s_new: int, positions: tuple) -> "TateElem":
        """Place variable j of self at slot positions[j] of an s_new-variable element."""
        if len(positions) != self.s or len(set(positions)) != self.s:
            raise ShapeMismatchError("positions must list one distinct slot per variable")
        if any(not 0 <= p < s_new for p in positions):
            raise ShapeMismatchError("position out of range")
        out = {}
        for e, c in self.terms.items():
            lifted = [0] * s_new
            for j, k in enumerate(e):
                lifted[positions[j]] = k
            out[tuple(lifted)] = c
        return TateElem(self.ctx, s_new, self.tcap, out, self.tail_norm_exp, self.decay)

    def with_decay(self, delta, c_exp) -> "TateElem":
        return TateElem(self.ctx, self.s, self.tcap, self.terms,
                        self.tail_norm_exp, (delta, Fraction(c_exp)))

    # -- output

    def render(self, max_terms: int = 12) -> str:
        lines = [f"TateElem s={self.s} cap={self.tcap} tail_exp={self.tail_norm_exp}"]
        for e in self.exponents()[:max_terms]:
            lines.append(f"  t^{e}: {self.terms[e]!r}")
        if len(self.terms) > max_terms:
            lines.append(f"  ... {len(self.terms) - max_terms} more")
        return "\n".join(lines)

    def __eq__(self, other):
        return (
            isinstance(other, TateElem)
            and self.ctx is other.ctx
            and self.s == other.s
            and self.tcap == other.tcap
            and self.tail_norm_exp == other.tail_norm_exp
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return (f"TateElem(s={self.s}, cap={self.tcap}, terms={len(self.terms)}, "
                f"tail_exp={self.tail_norm_exp})")


# -- constructors


def tate_zero(ctx: Completion, s: int, tcap: int) -> TateElem:
    return TateElem(ctx, s, tcap, {})


def tate_const(ctx: Completion, s: int, tcap: int, x: RamLaurent) -> TateElem:
    return TateElem(ctx, s, tcap, {(0,) * s: x})


def tate_var(ctx: Completion, s: int, tcap: int, i: int) -> TateElem:
    if not 0 <= i < s:
        raise ShapeMismatchError(f"variable index {i} out of range for s={s}")
    e = tuple(1 if j == i else 0 for j in range(s))
    return TateElem(ctx, s, tcap, {e: ctx.one()})


def tate_t_minus_theta(ctx: Completion, s: int, tcap: int, i: int) -> TateElem:
    return tate_var(ctx, s, tcap, i) + tate_const(ctx, s, tcap, -ctx.theta())


# -- evaluation data


class EvalSpec:
    """Roots of unity data for the evaluation map t_i = zeta_i.

    primes: monic irreducibles p_1..p_s of A with coefficients in the base
    subfield; roots: one root of each inside the ambient extension field.
    """

    __slots__ = ("primes", "roots", "field")

    def __init__(self, primes, roots):
        primes = tuple(primes)
        roots = tuple(roots)
        if not primes or len(primes) != len(roots):
            raise ShapeMismatchError("need one root per prime, at least one prime")
        field = primes[0].field
        for f in primes:
            if f.field is not field:
                raise FieldMismatchError("primes over different towers")
            if f.degree < 1 or not f.is_monic():
                raise NotIrreducibleError(f"{f!r} is not monic of positive degree")
            f.subfield_coeff_indices()  # FieldMismatchError if outside the base subfield
            if not f.is_irreducible():
                raise NotIrreducibleError(f"{f!r} is reducible over the base subfield")
        seen = set()
        for f in primes:
            key = tuple(c.index for c in f.coeffs)
            if key in seen:
                raise DuplicateNodesError("repeated prime in evaluation data")
            seen.add(key)
        for f, z in zip(primes, roots):
            if z.field is not field:
                raise FieldMismatchError("root from another tower")
            if not f.eval(z).is_zero():
                raise RootMismatchError(f"{z!r} is not a root of {f!r}")
        self.primes = primes
        self.roots = roots
        self.field = field

    @property
    def s(self) -> int:
        return len(self.primes)

    def __repr__(self):
        return f"EvalSpec(prime degrees {[f.degree for f in self.primes]})"
