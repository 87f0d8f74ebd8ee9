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

from .errors import EmptyPrecisionError, FieldMismatchError, ShapeMismatchError
from .fields import GFElem
from .laurent import (NEG_INF, PREC_EXACT, Completion, RamLaurent, left_map, pair_mul,
                      sum_blocks)


def _val_floor(exp_bound, ram: int) -> int:
    """Certified valuation floor from a norm-exponent bound |x| <= q^exp."""
    return math.ceil(-Fraction(exp_bound) * ram)


def mul_profile(a: "TateElem", b: "TateElem"):
    """(cap, precs, tail) of the product a * b, from valuations and precisions.

    This is the one rule for a product's shape, computed in ints before any
    coefficient is formed.  cap = min(a.tcap, b.tcap).  precs maps every
    exponent ea + eb <= cap of a stored pair, in first-appearance order over
    a's keys outer and b's inner, to the least mul_prec over the pairs that
    land there.  The tail is max(fold, ta + gauss(b), tb + gauss(a), ta + tb),
    where fold is the least v(a[ea]) + v(b[eb]) over the pairs whose exponent
    passes the cap.  All pairs are taken at once in numpy: mul_prec's rule
    over arrays, and one sort of the exponents, coded in base cap + 1, for
    the per-key least precision and first appearance.
    """
    a._check(b)
    cap, s = min(a.tcap, b.tcap), a.s

    def columns(x):
        cs = x.terms.values()
        return (np.array(list(x.terms), dtype=np.int64).reshape(len(x.terms), s),
                np.array([c.prec for c in cs], dtype=np.int64),
                np.array([c.valuation() for c in cs], dtype=np.int64))

    (EA, pa, va), (EB, pb, vb) = columns(a), columns(b)
    E = (EA[:, None] + EB[None, :]).reshape(-1, s)
    exact = (pa[:, None] >= PREC_EXACT) & (pb[None, :] >= PREC_EXACT)
    P = np.where(exact, PREC_EXACT,
                 np.minimum(np.minimum(pa[:, None] + vb, pb + va[:, None]), PREC_EXACT))
    inside = (E <= cap).all(axis=1)
    V = (va[:, None] + vb).ravel()[~inside]
    E, P = E[inside], P.ravel()[inside]
    keys, first, where = np.unique(E @ (cap + 1) ** np.arange(s, dtype=np.int64),
                                   return_index=True, return_inverse=True)
    least = np.full(len(keys), PREC_EXACT, dtype=np.int64)
    np.minimum.at(least, where.ravel(), P)
    order = np.argsort(first)
    precs = {tuple(r): int(x) for r, x in zip(E[first[order]].tolist(), least[order])}
    fold = Fraction(-int(V.min()), a.ctx.ram) if V.size else NEG_INF
    ta, tb = a.tail_norm_exp, b.tail_norm_exp
    tail = max(fold, ta + b.gauss_norm_exp(), tb + a.gauss_norm_exp(), ta + tb)
    return cap, precs, tail


class TateElem:
    """Polynomial part of a Tate-algebra element plus a tail-norm bound.

    terms maps exponent tuples (i_1,...,i_s), 0 <= i_j <= tcap, to RamLaurent
    coefficients sharing one completion.  tail_norm_exp is b such that the
    discarded (higher-degree) part has Gauss norm <= q^b; NEG_INF means the
    stored polynomial is the whole element.
    """

    __slots__ = ("ctx", "s", "tcap", "terms", "tail_norm_exp")

    def __init__(self, ctx: Completion, s: int, tcap: int, terms: dict,
                 tail_norm_exp=NEG_INF):
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

    def prec_floor(self) -> int:
        out = PREC_EXACT
        for c in self.terms.values():
            out = min(out, c.prec)
        if self.tail_norm_exp != NEG_INF:
            out = min(out, _val_floor(self.tail_norm_exp, self.ctx.ram))
        return out

    # -- ring structure

    def _check(self, other: "TateElem"):
        if self.ctx is not other.ctx:
            raise FieldMismatchError("elements from different completions")
        if self.s != other.s:
            raise ShapeMismatchError(f"variable counts differ: {self.s} vs {other.s}")

    def _combine(self, other: "TateElem", sign: int) -> "TateElem":
        """self + sign * other in one pass over the keys, sign +1 or -1."""
        self._check(other)
        cap = min(self.tcap, other.tcap)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            prev = merged.get(e)
            if sign > 0:
                merged[e] = c if prev is None else prev + c
            else:
                merged[e] = -c if prev is None else prev - c
        return TateElem(self.ctx, self.s, cap, merged,
                        max(self.tail_norm_exp, other.tail_norm_exp))

    def __add__(self, other: "TateElem") -> "TateElem":
        return self._combine(other, 1)

    def __neg__(self) -> "TateElem":
        return TateElem(self.ctx, self.s, self.tcap,
                        {e: -c for e, c in self.terms.items()}, self.tail_norm_exp)

    def __sub__(self, other: "TateElem") -> "TateElem":
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, RamLaurent):
            return self.scalar_mul(other)
        if isinstance(other, GFElem):
            return self.scalar_mul(self.ctx.from_field(other))
        if not isinstance(other, TateElem):
            return NotImplemented
        ctx = self.ctx
        cap, precs, tail = mul_profile(self, other)
        # the raw product blocks of the pairs that land on one exponent are
        # summed and reduced once.  Truncating that sum at the least pair
        # precision equals summing the products each truncated at its own,
        # so every coefficient is RamLaurent.__mul__'s sum.
        blocks = {e: [] for e in precs}
        right = [(eb, cb.offset, cb.coeffs.astype(np.int64))
                 for eb, cb in other.terms.items() if cb.coeffs.shape[0]]
        for ea, ca in self.terms.items():
            if not ca.coeffs.shape[0]:
                continue
            AT = left_map(ctx, ca.coeffs)
            for eb, ob, B in right:
                slot = blocks.get(tuple(x + y for x, y in zip(ea, eb)))
                if slot is not None:  # None: the pair passes the cap
                    slot.append((ca.offset + ob, pair_mul(ctx, AT, B)))
        out = {e: sum_blocks(ctx, blocks[e], prec) for e, prec in precs.items()}
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

    def ev(self, roots: tuple) -> RamLaurent:
        """Evaluate t_i = roots[i], roots of unity in the tower.

        |roots[i]| = 1, so the tail bound transfers.
        """
        if len(roots) != self.s:
            raise ShapeMismatchError(f"{len(roots)} roots for {self.s} variables")
        if any(z.field is not self.ctx.spec for z in roots):
            raise FieldMismatchError("evaluation roots from another tower")
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
        return TateElem(self.ctx, s_new, self.tcap, out, self.tail_norm_exp)

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

