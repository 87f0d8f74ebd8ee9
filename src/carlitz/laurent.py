"""Laurent series over the ramified degree-(q-1) extension of F_q((1/theta)).

Working uniformizer u satisfies u^-(q-1) = -theta, i.e. u is the inverse of a
(q-1)-st root lambda of -theta.  The absolute value is |x| = q^(-v/(q-1))
where v is the u-valuation, so A-elements embed with exponents that are
non-positive multiples of q-1 and F_q coefficients, by the one rule
Completion.embed_rows: theta^i -> (-1)^i u^(-i(q-1)).

A RamLaurent stores a dense block of F_p coordinate rows (one row per
u-exponent, length m = e*d) together with an absolute precision bound:
x = sum of stored terms + O(u^prec).  Exact elements use the PREC_EXACT
sentinel.  All arithmetic tracks precision pessimistically, products by the
one rule mul_prec; the q-power map has an exact fast path because the
coefficient field has characteristic p.

One path each: pair_mul is the one kernel for a pair of series, on a left
factor mapped through the basis products once by left_map.  RamLaurent.__mul__
is that kernel, reduced by the constructor; TateElem.__mul__ sums the
unreduced blocks of all pairs into one frame and reduces once.
batch_mul multiplies N stacked pairs in one matrix product, batch_inv is the
one Newton iteration, and inv_extent holds the one rule for an inverse's
length and precision.  stack_inv inverts stacked rows by that rule;
RamLaurent.inv is its one-row case, and the lattice sums in functions call
it on whole degree blocks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import (
    ConfigError,
    EmptyPrecisionError,
    FieldMismatchError,
    ShapeMismatchError,
    SizeLimitError,
    ZeroInverseError,
)
from .fields import FieldSpec, GFElem, GFPoly, _mat_pow, make_field, power

PREC_EXACT = 10**9
_MAX_LEN = 2_000_000

NEG_INF = float("-inf")


class Completion:
    """Shared context of one tower: field, ramification data and caches.

    Every precision is explicit in the call that needs it, so a completion
    stands for its tower alone, and its cache holds every constant and block
    table that depends on the tower and the budget, keyed by that budget.
    """

    def __init__(self, p: int, e: int, d: int = 1):
        self.spec: FieldSpec = make_field(p, e, d)
        self.p = p
        self.q = self.spec.q
        self.d = d
        self.ram = self.q - 1
        self.cache: dict = {}
        m = self.spec.m
        self._empty = np.zeros((0, m), dtype=np.int8)
        # basis_mul_table as (m, m*m): row i, column j*m + k is T[i, j, k]
        self.mul_rows = self.spec.basis_mul_table.reshape(m, m * m).astype(np.int64)
        # built once: a series is never written to, so every caller can share it
        self._theta = self.embed_poly(self.spec.poly([0, 1]))

    # -- constructors

    def zero(self, prec: int = PREC_EXACT) -> "RamLaurent":
        return RamLaurent(self, 0, self._empty, prec)

    def one(self) -> "RamLaurent":
        return self.from_field(self.spec.one)

    def from_field(self, c, exponent: int = 0) -> "RamLaurent":
        """Constant (or single term c*u^exponent); c is a GFElem or F_q index."""
        if not isinstance(c, GFElem):
            c = self.spec.from_subfield(int(c))
        if c.field is not self.spec:
            raise FieldMismatchError("coefficient from another tower")
        return RamLaurent(self, exponent, np.array([c.coords], dtype=np.int8))

    def u_pow(self, k: int) -> "RamLaurent":
        return self.from_field(self.spec.one, k)

    def lam(self) -> "RamLaurent":
        """The root lambda with lambda^(q-1) = -theta; equals u^-1."""
        return self.u_pow(-1)

    def theta(self) -> "RamLaurent":
        return self._theta

    def from_terms(self, terms: Iterable[tuple[int, GFElem]], prec: int = PREC_EXACT) -> "RamLaurent":
        terms = list(terms)
        if not terms:
            return self.zero(prec)
        lo = min(k for k, _ in terms)
        hi = max(k for k, _ in terms)
        out = np.zeros((hi - lo + 1, self.spec.m), dtype=np.int64)
        for k, c in terms:
            if c.field is not self.spec:
                raise FieldMismatchError("coefficient from another tower")
            out[k - lo] += np.array(c.coords, dtype=np.int64)
        return RamLaurent(self, lo, out % self.p, prec)

    def embed_rows(self, C: np.ndarray) -> np.ndarray:
        """(N, (L - 1)*ram + 1, m) int64 rows of N polynomials in theta with
        (N, L, m) coefficients, low degree first: the one statement of the
        embedding theta^i -> (-1)^i u^(-i*ram).  Row r is the coefficient of
        u^(r - (L - 1)*ram), so degree L - 1 starts at row 0."""
        N, L, m = C.shape
        rows = np.zeros((N, (L - 1) * self.ram + 1, m), dtype=np.int64)
        sign = (-1) ** np.arange(L)
        rows[:, :: self.ram] = (C * sign[:, None])[:, ::-1] % self.p
        return rows

    def qpow_rows(self, C: np.ndarray, k: int) -> np.ndarray:
        """(..., (L - 1)*q^k + 1, m) int8 rows of the q^k-th powers of the
        (..., L, m) coefficient rows C: frob_matrix^k on each row, rows at
        stride q^k.  The one q-power of rows, and the one check of _MAX_LEN
        before a dilated block is allocated; frob_matrix^k is cached per k."""
        qk = self.q**k
        newL = max((C.shape[-2] - 1) * qk + 1, 0)
        if newL > _MAX_LEN:
            raise SizeLimitError("qpow block too long")
        F = self.cache.get(("frob", k))
        if F is None:
            F = self.cache[("frob", k)] = _mat_pow(self.spec.frob_matrix.astype(np.int64), k, self.p)
        out = np.zeros(C.shape[:-2] + (newL, self.spec.m), dtype=np.int8)
        out[..., ::qk, :] = C.astype(np.int64) @ F % self.p
        return out

    def embed_poly(self, a: GFPoly) -> "RamLaurent":
        """Exact embedding of a polynomial in theta (embed_rows)."""
        if a.field is not self.spec:
            raise FieldMismatchError("polynomial over another tower")
        if a.is_zero():
            return self.zero()
        rows = self.embed_rows(self.spec.coord_rows(a.idx)[None])
        return RamLaurent(self, -a.degree * self.ram, rows[0])

    def __repr__(self):
        return f"Completion(q={self.q}, d={self.d})"


def mul_prec(pa: int, va: int, pb: int, vb: int) -> int:
    """Precision of a product of factors with precisions pa, pb and valuations
    va, vb: exact when both are exact, or when either is the exact zero, the
    one element of valuation PREC_EXACT."""
    if (pa >= PREC_EXACT and pb >= PREC_EXACT) or max(va, vb) >= PREC_EXACT:
        return PREC_EXACT
    return min(pa + vb, pb + va, PREC_EXACT)


def mul_precs(pa, va, pb, vb):
    """mul_prec applied elementwise: int arrays (or ints) that broadcast
    together give the precision of every product at once.  The array form of
    the rule for mul_profile, TateElem.scalar_mul and the stacked ram_solve.
    Only the solve passes exact zeros: TateElem._set keeps no exact-zero key,
    so no factor of mul_profile is one, and scalar_mul returns before this
    rule on an exact-zero scalar."""
    return np.where(((pa >= PREC_EXACT) & (pb >= PREC_EXACT)) | (np.maximum(va, vb) >= PREC_EXACT),
                    PREC_EXACT, np.minimum(np.minimum(pa + vb, pb + va), PREC_EXACT))


def left_map(ctx: Completion, A: np.ndarray) -> np.ndarray:
    """The left factor of a pair product, mapped through basis_mul_table once.

    A (L, m) -> (L, m*m) int64 whose column j*m + k is sum_i A[:, i] T[i, j, k],
    so coordinate k of A*B is the sum over j of that column convolved with
    B[:, j].  A TateElem product maps each left coefficient once, not once per
    pair.
    """
    return A.astype(np.int64) @ ctx.mul_rows


def pair_mul(ctx: Completion, AT: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The pair kernel: unreduced coefficient block of one product, no offsets.

    AT is the left factor through left_map (La, m*m), B (Lb, m) int64 the
    right factor; returns (La+Lb-1, m) int64, not reduced mod p, from one
    np.convolve per pair of nonzero columns (at most m*m), straight into the
    output columns.  Coefficients in a subfield leave columns zero: on the
    series-q2 benchmark workload 70% of the m = 2 column pairs are.
    RamLaurent.__mul__ reduces the block at once;
    TateElem.__mul__ sums the blocks of every pair that lands on one
    exponent and reduces the sum once.  Measurement rules out sending pair
    products through batch_mul: on series-q2 single products through it made
    the run 1.5x slower, and stacking all pair products of a TateElem product
    into one batch_mul call made it 1.9x slower with 1.5x the peak memory.
    """
    m = ctx.spec.m
    out = np.zeros((AT.shape[0] + B.shape[0] - 1, m), dtype=np.int64)
    for j in range(m):
        cb = B[:, j]
        if not np.count_nonzero(cb):
            continue
        for k in range(m):
            ca = AT[:, j * m + k]
            if np.count_nonzero(ca):
                out[:, k] += np.convolve(ca, cb)
    return out


def batch_mul(ctx: Completion, A: np.ndarray, B: np.ndarray, n: int,
              start: int = 0) -> np.ndarray:
    """Row-wise products of stacked series, coefficients start .. n-1.

    A (N, La, m) and B (N, Lb, m) hold the F_p coordinate rows of N series
    each, aligned at their first coefficient; returns (N, n - start, m) int64
    reduced mod p.  One matrix product maps the reversed A through
    basis_mul_table; a second one takes every coefficient pair at once,
    against a read-only strided window of B (row k of the window is
    B[k-La+1 .. k], zero-padded, flattened) that starts at row start.  The
    window is a view and is never copied.  Coordinates that every pair
    leaves zero (coefficients in a subfield) drop out of the factors and of
    basis_mul_table, as pair_mul skips them: lem41's Vandermonde rows have
    F_p coefficients, and at q = 8 forming all m*m coordinate pairs made its
    solve six times slower than the element-wise one.
    """
    N, m = A.shape[0], ctx.spec.m
    A = A[:, :n]
    La, Lb = A.shape[1], min(B.shape[1], n)
    B, rows, k = B[:, :Lb], ctx.mul_rows, None
    if m > 1:
        i, j = A.any(axis=(0, 1)), B.any(axis=(0, 1))
        if not (i.all() and j.all()):
            T = rows.reshape(m, m, m)[i][:, j]
            k = T.any(axis=(0, 1))
            if not k.any():
                return np.zeros((N, n - start, m), dtype=np.int64)
            A, B, rows = A[..., i], B[..., j], T[..., k].reshape(len(T), -1)
    mj = B.shape[2]
    Bp = np.zeros((N, La - 1 + n, mj), dtype=np.int64)
    Bp[:, La - 1 : La - 1 + Lb] = B
    W = np.ndarray((N, n - start, La * mj), dtype=np.int64, buffer=Bp,
                   offset=start * Bp.strides[1], strides=Bp.strides)
    W.flags.writeable = False
    AT = (A[:, ::-1].reshape(-1, A.shape[2]) @ rows).reshape(N, La * mj, -1)
    if k is None:
        return (W @ AT) % ctx.p
    C = np.zeros((N, n - start, m), dtype=np.int64)
    C[..., k] = (W @ AT) % ctx.p
    return C


def _field_inv_rows(spec: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Coordinates of the inverses of N nonzero field elements given as (N, m) rows."""
    place = spec.p ** np.arange(spec.m, dtype=np.int64)
    logs = np.asarray(spec.log)[rows.astype(np.int64) @ place]
    return spec.coord_rows(np.asarray(spec.exp)[spec.order - 1 - logs])


def batch_inv(ctx: Completion, U: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1/U for N stacked series at once.

    U (N, L, m) holds series aligned at their valuation (every U[:, 0] is a
    nonzero field element).  Newton doubling on all rows together: with X
    right to t terms, the error 1 - U*X vanishes below t, so only its terms
    t..2t-1 are formed, and X times them gives the next t terms of X.
    Returns (N, n, m) int64.  This is the only Newton iteration of the
    package.
    """
    N, _, m = U.shape
    X = np.zeros((N, n, m), dtype=np.int64)
    X[:, 0] = _field_inv_rows(ctx.spec, U[:, 0])
    t = 1
    while t < n:
        t2 = min(2 * t, n)
        E = batch_mul(ctx, X[:, :t], U[:, :t2], t2, t)
        X[:, t:t2] = batch_mul(ctx, X[:, : t2 - t], -E, t2 - t)
        t = t2
    return X


def inv_extent(nz: np.ndarray, lo: int, dprec: int, rel_prec):
    """The one rule for the length and precision of an inverse.

    nz (N, F) marks the nonzero coefficients of N nonzero series known
    modulo u^dprec and stacked in one frame: nz[i, r] when series i has a
    nonzero coefficient at u^(lo + r).  With v its valuation, the inverse
    of series i keeps n coefficients: dprec - v capped at rel_prec (so
    rel_prec for exact series), and at least one; it is known to precision
    -v + n.  An exact series (dprec PREC_EXACT) with one nonzero coefficient
    is a single term and gets its exact inverse.  rel_prec may be one cap
    per series.  Returns (v, n, prec).  It reads valuations only, so the
    lattice sums apply it to rows they never invert.
    """
    v = lo + nz.argmax(axis=1)
    single = (nz.sum(axis=1) == 1) & (dprec >= PREC_EXACT)
    n = np.where(single, 1, np.maximum(np.minimum(dprec - v, rel_prec), 1))
    return v, n, np.where(single, PREC_EXACT, -v + n)


def stack_inv(ctx: Completion, D: np.ndarray, lo: int, dprec: int, rel_prec):
    """Inverses of N nonzero series stacked in one frame, by inv_extent's rule.

    Row i of D (N, F, m) is sum_r D[i, r] u^(lo + r) + O(u^dprec); the
    inverse of row i keeps the n coefficients and the precision that
    inv_extent gives it.  Returns (X, off, prec): inverse i is
    sum_r X[i, r] u^(off[i] + r) + O(u^prec[i]), with X zero from each
    row's n on.
    """
    N, _, m = D.shape
    v, n, prec = inv_extent(D.any(axis=2), lo, dprec, rel_prec)
    first = v - lo
    L = int(n.max())
    padded = np.concatenate([D, np.zeros((N, L, m), dtype=D.dtype)], axis=1)
    X = batch_inv(ctx, padded[np.arange(N)[:, None], first[:, None] + np.arange(L)], L)
    X[np.arange(L)[None, :] >= n[:, None]] = 0
    return X, -v, prec


class RamLaurent:
    """Dense Laurent series block with absolute precision tracking."""

    __slots__ = ("ctx", "offset", "coeffs", "prec")

    def __init__(self, ctx: Completion, offset: int, coeffs, prec: int = PREC_EXACT):
        m = ctx.spec.m
        arr = np.asarray(coeffs)
        if arr.ndim != 2 or arr.shape[1] != m:
            if arr.size == 0:
                arr = np.zeros((0, m), dtype=np.int8)
            else:
                raise ShapeMismatchError(f"coefficient block must be (L, {m})")
        prec = min(int(prec), PREC_EXACT)
        if arr.shape[0] > _MAX_LEN:
            raise SizeLimitError("series block too long")
        # one pass: truncate at prec, reduce what is left, and find the first
        # and last nonzero rows from one flatnonzero (without its wrappers)
        arr = arr[: max(prec - offset, 0)]
        if arr.dtype != np.int8:
            arr = ((arr if arr.dtype == np.int64 else arr.astype(np.int64)) % ctx.p).astype(np.int8)
        nz = arr.ravel().nonzero()[0]
        if nz.size:
            first = int(nz[0]) // m
            arr, offset = np.ascontiguousarray(arr[first : nz[-1] // m + 1]), offset + first
        else:
            arr, offset = arr[:0], 0
        self.ctx, self.offset, self.coeffs, self.prec = ctx, offset, arr, prec

    # -- predicates and views

    def is_zero(self) -> bool:
        """No stored terms (possibly only known modulo u^prec)."""
        return self.coeffs.shape[0] == 0

    def is_exact(self) -> bool:
        return self.prec >= PREC_EXACT

    def is_exact_zero(self) -> bool:
        return self.is_zero() and self.is_exact()

    def valuation(self) -> int:
        """u-valuation; for a term-free element this is the precision floor."""
        return self.offset if self.coeffs.shape[0] else self.prec

    def norm_exp(self):
        """Exponent b with |x| = q^b as a Fraction; -inf for the exact zero."""
        if self.is_exact_zero():
            return NEG_INF
        return Fraction(-self.valuation(), self.ctx.ram)

    def coeff_at(self, k: int) -> GFElem:
        if k >= self.prec:
            raise EmptyPrecisionError(f"coefficient u^{k} beyond precision {self.prec}")
        r = k - self.offset
        if 0 <= r < self.coeffs.shape[0]:
            return self.ctx.spec.elem(self.coeffs[r])
        return self.ctx.spec.zero

    def end(self) -> int:
        return self.offset + self.coeffs.shape[0]

    # -- arithmetic

    def _check(self, other: "RamLaurent"):
        if self.ctx is not other.ctx:
            raise FieldMismatchError("series from different completions")

    def _combine(self, other: "RamLaurent", sign: int) -> "RamLaurent":
        """self + sign * other in one pass, sign +1 or -1."""
        self._check(other)
        prec = min(self.prec, other.prec)
        if other.is_zero():
            return RamLaurent(self.ctx, self.offset, self.coeffs, prec)
        if self.is_zero() and sign > 0:
            return RamLaurent(self.ctx, other.offset, other.coeffs, prec)
        lo, hi = other.offset, other.end()
        if not self.is_zero():
            lo, hi = min(lo, self.offset), max(hi, self.end())
        out = np.zeros((hi - lo, self.ctx.spec.m), dtype=np.int64)
        out[self.offset - lo : self.end() - lo] += self.coeffs
        if sign > 0:
            out[other.offset - lo : other.end() - lo] += other.coeffs
        else:
            out[other.offset - lo : other.end() - lo] -= other.coeffs
        return RamLaurent(self.ctx, lo, out % self.ctx.p, prec)

    def __add__(self, other: "RamLaurent") -> "RamLaurent":
        return self._combine(other, 1)

    def __neg__(self) -> "RamLaurent":
        return RamLaurent(self.ctx, self.offset, (-self.coeffs.astype(np.int64)) % self.ctx.p, self.prec)

    def __sub__(self, other: "RamLaurent") -> "RamLaurent":
        return self._combine(other, -1)

    def __mul__(self, other: "RamLaurent") -> "RamLaurent":
        self._check(other)
        prec = mul_prec(self.prec, self.valuation(), other.prec, other.valuation())
        if self.is_zero() or other.is_zero():
            return self.ctx.zero(prec)
        block = pair_mul(self.ctx, left_map(self.ctx, self.coeffs), other.coeffs.astype(np.int64))
        return RamLaurent(self.ctx, self.offset + other.offset, block, prec)

    def scale(self, c: GFElem) -> "RamLaurent":
        """Multiply by a field constant (exact, norm-preserving unless c = 0)."""
        if c.field is not self.ctx.spec:
            raise FieldMismatchError("scalar from another tower")
        if c.is_zero():
            return self.ctx.zero()
        if self.is_zero():
            return self
        out = (self.coeffs.astype(np.int64) @ self.ctx.spec.mul_matrices(c.coords)) % self.ctx.p
        return RamLaurent(self.ctx, self.offset, out, self.prec)

    def inv(self, rel_prec: int) -> "RamLaurent":
        """1/self: the one-row case of stack_inv (length and precision by inv_extent)."""
        if self.is_exact_zero():
            raise ZeroInverseError("inverse of exact zero series")
        if self.is_zero():
            raise EmptyPrecisionError("inverse of a term-free series: no leading term")
        X, off, prec = stack_inv(self.ctx, self.coeffs[None], self.offset, self.prec, rel_prec)
        return RamLaurent(self.ctx, int(off[0]), X[0], int(prec[0]))

    def __pow__(self, n: int) -> "RamLaurent":
        if n < 0:
            raise ConfigError("power exponent must be >= 0; invert with inv(rel_prec)")
        return power(self, n) if n else self.ctx.one()

    def qpow(self, k: int = 1) -> "RamLaurent":
        """Exact q^k-th power: coefficientwise Frobenius plus exponent dilation.

        Valid because raising to the q-th power is additive in characteristic
        p, so the power of a truncated series is the truncation of the power
        with precision scaled by q^k.
        """
        if k < 0:
            raise ConfigError("qpow exponent must be >= 0")
        ctx = self.ctx
        qk = ctx.q**k
        prec = self.prec if self.is_exact() else self.prec * qk
        if self.is_zero():
            return RamLaurent(ctx, 0, self.coeffs, prec)
        return RamLaurent(ctx, self.offset * qk, ctx.qpow_rows(self.coeffs, k), prec)

    def truncate(self, new_prec: int) -> "RamLaurent":
        """Forget all information at u-exponents >= new_prec."""
        return RamLaurent(self.ctx, self.offset, self.coeffs, min(self.prec, new_prec))

    def __eq__(self, other):
        return (
            isinstance(other, RamLaurent)
            and self.ctx is other.ctx
            and self.offset == other.offset
            and self.prec == other.prec
            and self.coeffs.shape == other.coeffs.shape
            and bool((self.coeffs == other.coeffs).all())
        )

    __hash__ = None

    def __repr__(self):
        if self.is_zero():
            tail = "exact" if self.is_exact() else f"O(u^{self.prec})"
            return f"RamLaurent(0, {tail})"
        lead = self.coeff_at(self.offset)
        tail = "exact" if self.is_exact() else f"prec={self.prec}"
        return (
            f"RamLaurent(u^{self.offset}*{lead.index}+..., terms={self.coeffs.shape[0]}, {tail})"
        )


def sample_z(ctx: Completion, rng: random.Random, regime: str = "small") -> RamLaurent:
    """Deterministic sample with finite support in a prescribed norm regime.

    Regimes: 'small' |z| < 1, 'unit' |z| = 1, 'large' |z| > 1, 'imag_large'
    |z|_im >= q.  Every sample carries a positive-exponent guard term, so it
    never lies in A (all exponents <= 0) nor in the period lattice or its
    scalings (those expand as infinite series while samples are finite).
    """
    spec = ctx.spec
    ram = ctx.ram

    def rand_nonzero():
        return spec.from_index(rng.randrange(1, spec.order))

    def rand_any():
        return spec.from_index(rng.randrange(spec.order))

    if regime == "small":
        v = rng.randrange(1, 2 * ram + 2)
    elif regime == "unit":
        v = 0
    elif regime == "large":
        v = -rng.randrange(1, 3 * ram + 1)
    elif regime == "imag_large":
        if ctx.d == 1 and ctx.q == 2:
            raise ConfigError("q=2, d=1 has no element with |z|_im >= 1")
        v = -ram * rng.randrange(1, 3)
    else:
        raise ConfigError(f"unknown sampling regime {regime!r}")

    if regime == "imag_large":
        if ctx.d > 1:
            coords = [0] * spec.m
            j = rng.randrange(1, ctx.d)
            i = rng.randrange(spec.e)
            coords[i + spec.e * j] = rng.randrange(1, ctx.p)
            lead = spec.elem(coords)
        else:
            # q > 2: push the lead off the q-1 exponent grid instead
            v -= rng.randrange(1, ram)
            lead = rand_nonzero()
    else:
        lead = rand_nonzero()

    terms = [(v, lead)]
    span = rng.randrange(2, 6)
    for k in range(v + 1, v + 1 + span):
        c = rand_any()
        if not c.is_zero():
            terms.append((k, c))
    guard_exp = max(v + span + 1, 1) + rng.randrange(0, 3)
    terms.append((guard_exp, rand_nonzero()))
    return ctx.from_terms(terms)
