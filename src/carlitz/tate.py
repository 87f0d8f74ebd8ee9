"""Truncated polynomials in t_1..t_s over the ramified Laurent completion.

An element is one frame: the exponent tuples (keys) in first-appearance
order, an int8 block (K, R, m) of F_p coordinate rows, row r at u^(lo + r),
a precision per key, and a rational exponent bounding the Gauss norm of
everything thrown away.  Key k is sum_r block[k, r] u^(lo + r) +
O(u^precs[k]), and coeff builds that RamLaurent on demand.  TateElem.frame
applies RamLaurent's rules to all keys at once: rows at or past a key's
precision are zero, rows are reduced mod p, exact-zero keys are dropped,
term-free inexact keys kept, keys past tcap fold into the tail by their
norm, and the block is trimmed to the rows in use (lo = 0 if none).  Every
operation works on whole arrays and keeps the coefficients, precisions and
sound tail bounds of the per-coefficient ones."""

import math
from fractions import Fraction

import numpy as np

from .errors import (EmptyPrecisionError, FieldMismatchError, ShapeMismatchError,
                     SizeLimitError)
from .fields import GFElem
from .laurent import (_MAX_LEN, NEG_INF, PREC_EXACT, Completion, RamLaurent, left_map,
                      mul_precs, pair_mul)


def _val_floor(exp_bound, ram: int) -> int:
    """Certified valuation floor from a norm-exponent bound |x| <= q^exp."""
    return math.ceil(-Fraction(exp_bound) * ram)


def mul_profile(a: "TateElem", b: "TateElem"):
    """(cap, keys, precs, tail) of the product a * b, in ints before any
    coefficient is formed: the one rule for a product's shape.

    cap = min(a.tcap, b.tcap).  keys lists every exponent ea + eb <= cap of a
    stored pair, first appearance over a's keys outer and b's inner, and
    precs gives each the least mul_prec over its pairs.  The tail is
    max(fold, ta + gauss(b), tb + gauss(a), ta + tb), fold the least v(a[ea])
    + v(b[eb]) over the pairs past the cap.  All pairs are taken at once:
    one mul_precs, and one sort of the exponents coded in base cap + 1.
    """
    a._check(b)
    cap, s = min(a.tcap, b.tcap), a.s
    pa, va, pb, vb = a.precs, a.vals, b.precs, b.vals
    E = (a._exps()[:, None] + b._exps()[None, :]).reshape(-1, s)
    P = mul_precs(pa[:, None], va[:, None], pb, vb)
    inside = (E <= cap).all(axis=1)
    V = (va[:, None] + vb).ravel()[~inside]
    E = E[inside]
    codes, first, where = np.unique(E @ (cap + 1) ** np.arange(s, dtype=np.int64),
                                    return_index=True, return_inverse=True)
    least = np.full(len(codes), PREC_EXACT, dtype=np.int64)
    np.minimum.at(least, where.ravel(), P.ravel()[inside])
    order = np.argsort(first)
    fold = Fraction(-int(V.min()), a.ctx.ram) if V.size else NEG_INF
    ta, tb = a.tail_norm_exp, b.tail_norm_exp
    tail = max(fold, ta + b.gauss_norm_exp(), tb + a.gauss_norm_exp(), ta + tb)
    return cap, [tuple(r) for r in E[first[order]].tolist()], least[order], tail


def _spans(x: "TateElem") -> list:
    """(k, first, end) for every key of x with a row: its rows in the block."""
    return [(k, v - x.lo, w - x.lo) for k, (v, w) in
            enumerate(zip(x.vals.tolist(), x.ends.tolist())) if w > v]


class TateElem:
    """Polynomial part of a Tate-algebra element plus a tail-norm bound: the
    frame of the module docstring, key k's rows at u^vals[k] .. u^(ends[k] -
    1) (vals[k] = ends[k] = precs[k] without rows), and tail_norm_exp b with
    |discarded higher-degree part| <= q^b, NEG_INF when nothing was.  The
    constructor takes a dict of RamLaurent coefficients, frame() a block."""

    __slots__ = ("ctx", "s", "tcap", "keys", "lo", "block", "precs", "vals", "ends",
                 "tail_norm_exp")

    def __init__(self, ctx: Completion, s: int, tcap: int, terms: dict,
                 tail_norm_exp=NEG_INF):
        if s < 0 or tcap < 0:
            raise ShapeMismatchError("need s >= 0 and tcap >= 0")
        for e, c in terms.items():
            if not (isinstance(e, tuple) and len(e) == s and min(e, default=0) >= 0):
                raise ShapeMismatchError(f"exponent {e!r} is not {s} slots >= 0")
            if not isinstance(c, RamLaurent) or c.ctx is not ctx:
                raise FieldMismatchError("coefficient from another completion")
        cs = list(terms.values())
        lo = min((c.offset for c in cs if c.coeffs.shape[0]), default=0)
        block = np.zeros((len(cs), max([c.end() - lo for c in cs] + [0]), ctx.spec.m), np.int8)
        for k, c in enumerate(cs):
            block[k, c.offset - lo : c.end() - lo] = c.coeffs
        self._set(ctx, s, tcap, tuple(terms), lo, block, [c.prec for c in cs], tail_norm_exp)

    @classmethod
    def frame(cls, ctx: Completion, s: int, tcap: int, keys, lo: int, block: np.ndarray,
              precs, tail_norm_exp=NEG_INF) -> "TateElem":
        """Key k is sum_r block[k, r] u^(lo + r) + O(u^precs[k]), normalized;
        block (K, R, m) may be unreduced and is never written to."""
        return cls.__new__(cls)._set(ctx, s, tcap, tuple(keys), lo, block, precs, tail_norm_exp)

    def _set(self, ctx, s, tcap, keys, lo, block, precs, tail):
        precs = np.minimum(np.asarray(precs, dtype=np.int64).reshape(len(keys)), PREC_EXACT)
        R = block.shape[1]
        if block.dtype != np.int8:
            block = (block % ctx.p).astype(np.int8)
        live = block[..., 0] != 0  # an or over the columns beats any(axis=2)
        for j in range(1, block.shape[2]):
            live |= block[..., j] != 0
        past = np.arange(lo, lo + R) >= precs[:, None]
        if (live & past).any():
            block = np.where(past[:, :, None], 0, block)
            live &= ~past
        has = live.any(axis=1)
        vals = np.where(has, lo + (live.argmax(axis=1) if R else 0), precs)
        ends = np.where(has, lo + R - (live[:, ::-1].argmax(axis=1) if R else 0), precs)
        keep = has | (precs < PREC_EXACT)
        if s and keys and max(map(max, keys)) > tcap:
            over = keep & (np.array(keys).reshape(len(keys), s) > tcap).any(axis=1)
            if over.any():
                tail = max(tail, Fraction(-int(vals[over].min()), ctx.ram))
                keep &= ~over
        if not keep.all():
            keys = tuple(e for e, k in zip(keys, keep.tolist()) if k)
            block, live, precs = block[keep], live[keep], precs[keep]
            vals, ends = vals[keep], ends[keep]
        rows = live.any(axis=0).nonzero()[0]
        block, lo = ((block[:, rows[0] : rows[-1] + 1], lo + int(rows[0])) if rows.size
                     else (block[:, :0], 0))
        self.ctx, self.s, self.tcap, self.keys = ctx, s, tcap, keys
        self.lo, self.block, self.precs, self.vals, self.ends = lo, block, precs, vals, ends
        self.tail_norm_exp = tail
        return self

    def _like(self, keys, lo, block, precs, tail, tcap=None) -> "TateElem":
        return TateElem.frame(self.ctx, self.s, self.tcap if tcap is None else tcap,
                              keys, lo, block, precs, tail)

    def _exps(self) -> np.ndarray:
        return np.array(self.keys, dtype=np.int64).reshape(len(self.keys), self.s)

    # -- views

    def coeffs_at(self, keys, prec: int = PREC_EXACT) -> list:
        """The coefficients at keys truncated at prec, one RamLaurent per key
        read from the frame; an empty slot gives zero(prec)."""
        slot, P = {e: k for k, e in enumerate(self.keys)}, self.precs.tolist()
        return [RamLaurent(self.ctx, self.lo, self.block[slot[e]], min(P[slot[e]], prec))
                if e in slot else self.ctx.zero(prec) for e in keys]

    def coeff(self, e: tuple) -> RamLaurent:
        """Stored coefficient at e; exact zero if the slot is empty."""
        if len(e) != self.s:
            raise ShapeMismatchError(f"exponent {e!r} does not have {self.s} slots")
        if any(k > self.tcap for k in e):
            raise EmptyPrecisionError(f"exponent {e!r} beyond the degree cap {self.tcap}")
        return self.coeffs_at([tuple(e)])[0]

    def gauss_norm_exp(self):
        """Max coefficient norm exponent over stored terms (NEG_INF if none)."""
        return Fraction(-int(self.vals.min()), self.ctx.ram) if self.keys else NEG_INF

    def prec_floor(self) -> int:
        out = int(self.precs.min()) if self.keys else PREC_EXACT
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
        """self + sign * other: self's keys then other's new ones, each at its least precision."""
        self._check(other)
        slot = {e: k for k, e in enumerate(dict.fromkeys(self.keys + other.keys))}
        idx = [slot[e] for e in other.keys]
        (A, a), (B, b), lo = (self.block, self.lo), (other.block, other.lo), min(self.lo, other.lo)
        acc = np.zeros((len(slot), max(a + A.shape[1], b + B.shape[1]) - lo, A.shape[2]),
                       dtype=np.int8)
        acc[: len(A), a - lo : a - lo + A.shape[1]] = A
        cols = slice(b - lo, b - lo + B.shape[1])  # only other's rows need a reduction
        acc[idx, cols] = (acc[idx, cols] + sign * B.astype(np.int16)) % self.ctx.p
        precs = np.full(len(slot), PREC_EXACT, dtype=np.int64)
        precs[: len(A)] = self.precs
        precs[idx] = np.minimum(precs[idx], other.precs)
        return self._like(slot, lo, acc, precs, max(self.tail_norm_exp, other.tail_norm_exp),
                          min(self.tcap, other.tcap))

    def __add__(self, other: "TateElem") -> "TateElem":
        return self._combine(other, 1)

    def __neg__(self) -> "TateElem":
        return self._like(self.keys, self.lo, -self.block.astype(np.int64), self.precs,
                          self.tail_norm_exp)

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
        cap, keys, precs, tail = mul_profile(self, other)
        # the raw product blocks of the pairs are summed in one int64 frame
        # and reduced once.  Truncating a key's sum at the least pair
        # precision equals summing the products each truncated at its own,
        # so every coefficient is RamLaurent.__mul__'s sum.
        A, B = self.block, other.block
        out = np.zeros((len(keys), max(A.shape[1] + B.shape[1] - 1, 0), A.shape[2]),
                       dtype=np.int64)
        slot = {e: k for k, e in enumerate(keys)}
        right = [(other.keys[kb], fb, B[kb, fb:wb].astype(np.int64))
                 for kb, fb, wb in _spans(other)]
        for ka, fa, wa in _spans(self):
            AT, ea = left_map(ctx, A[ka, fa:wa]), self.keys[ka]
            for eb, fb, Bk in right:
                k = slot.get(tuple(x + y for x, y in zip(ea, eb)))
                if k is not None:  # None: the pair passes the cap
                    blk = pair_mul(ctx, AT, Bk)
                    out[k, fa + fb : fa + fb + blk.shape[0]] += blk
        return self._like(keys, self.lo + other.lo, out, precs, tail, cap)

    __rmul__ = __mul__

    def scalar_mul(self, b: RamLaurent) -> "TateElem":
        """Every coefficient times b: one pair_mul per key on its rows alone, into
        one int64 frame, and mul_precs on the precision vector."""
        if b.ctx is not self.ctx:
            raise FieldMismatchError("scalar from another completion")
        if b.is_exact_zero():
            return TateElem(self.ctx, self.s, self.tcap, {})
        precs = mul_precs(self.precs, self.vals, b.prec, b.valuation())
        K, R, m = self.block.shape
        out = np.zeros((K, max(R + b.coeffs.shape[0] - 1, 0), m), dtype=np.int64)
        B = b.coeffs.astype(np.int64)
        for k, f, w in _spans(self) if B.shape[0] else ():
            blk = pair_mul(self.ctx, left_map(self.ctx, self.block[k, f:w]), B)
            out[k, f : f + blk.shape[0]] += blk
        return self._like(self.keys, self.lo + b.offset, out, precs,
                          self.tail_norm_exp + b.norm_exp())

    # -- twists

    def tau(self) -> "TateElem":
        """Coefficientwise q-th power (RamLaurent.qpow on the frame); t
        exponents unchanged."""
        (K, R, m), q = self.block.shape, self.ctx.q
        if (R - 1) * q + 1 > _MAX_LEN:
            raise SizeLimitError("qpow block too long")
        out = np.zeros((K, max((R - 1) * q + 1, 0), m), dtype=np.int8)
        out[:, ::q] = self.block @ self.ctx.spec.frob_matrix.astype(np.int64) % self.ctx.p
        precs = np.where(self.precs >= PREC_EXACT, self.precs, self.precs * q)
        return self._like(self.keys, self.lo * q, out, precs, self.tail_norm_exp * q)

    def phi(self, i: int) -> "TateElem":
        """Substitute t_i -> t_i^q, coefficients untouched."""
        if not 0 <= i < self.s:
            raise ShapeMismatchError(f"variable index {i} out of range for s={self.s}")
        keys = [e[:i] + (self.ctx.q * e[i],) + e[i + 1 :] for e in self.keys]
        return self._like(keys, self.lo, self.block, self.precs, self.tail_norm_exp)

    def ev(self, roots: tuple) -> RamLaurent:
        """Evaluate t_i = roots[i], roots of unity or zero in the tower: key e
        scales by prod_i roots[i]^e_i, its matrix from the discrete logs, one
        small product per key; a key that a zero root kills drops out,
        precision and all.  |roots[i]| <= 1, so the tail bound transfers."""
        if len(roots) != self.s:
            raise ShapeMismatchError(f"{len(roots)} roots for {self.s} variables")
        ctx, spec, E = self.ctx, self.ctx.spec, self._exps()
        if any(z.field is not spec for z in roots):
            raise FieldMismatchError("evaluation roots from another tower")
        live = ~(E[:, [z.is_zero() for z in roots]] > 0).any(axis=1)
        tail = [] if self.tail_norm_exp == NEG_INF else [_val_floor(self.tail_norm_exp, ctx.ram)]
        acc = ctx.zero(min([PREC_EXACT] + tail + self.precs[live].tolist()))
        if live.any() and self.block.shape[1]:
            logs = E[live] @ np.array([spec.log[z.index] for z in roots], dtype=np.int64)
            C = spec.coord_rows(np.asarray(spec.exp)[logs % (spec.order - 1)])
            M = spec.mul_matrices(C)
            acc = RamLaurent(ctx, self.lo, sum(map(np.matmul, self.block[live], M)), acc.prec)
        return acc

    def embed_vars(self, s_new: int, positions: tuple) -> "TateElem":
        """Place variable j of self at slot positions[j] of an s_new-variable element."""
        if len(positions) != self.s or len(set(positions)) != self.s:
            raise ShapeMismatchError("positions must list one distinct slot per variable")
        if any(not 0 <= p < s_new for p in positions):
            raise ShapeMismatchError("position out of range")
        E = np.zeros((len(self.keys), s_new), dtype=np.int64)
        E[:, list(positions)] = self._exps()
        return TateElem.frame(self.ctx, s_new, self.tcap, map(tuple, E.tolist()), self.lo,
                              self.block, self.precs, self.tail_norm_exp)

    def __eq__(self, other):
        """Equal key sets, precisions and rows: normalized frames of equal
        coefficients share lo and R."""
        if not (isinstance(other, TateElem) and self.ctx is other.ctx and self.s == other.s
                and self.tcap == other.tcap and self.tail_norm_exp == other.tail_norm_exp
                and set(self.keys) == set(other.keys) and self.lo == other.lo
                and self.block.shape == other.block.shape):
            return False
        perm = [other.keys.index(e) for e in self.keys]
        return bool((self.precs == other.precs[perm]).all()
                    and (self.block == other.block[perm]).all())

    __hash__ = None

    def __repr__(self):
        return (f"TateElem(s={self.s}, cap={self.tcap}, terms={len(self.keys)}, "
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
