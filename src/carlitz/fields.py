"""Finite field towers F_p < F_q < F_{q^d} and exact polynomial arithmetic.

Every tower is built from its own base.  make_field(p, 1, 1) is F_p, and
make_field(p, e, d) is base[y]/(f), where the base is make_field(p, e, 1)
when d > 1 and F_p otherwise, and f is the lexicographically least monic
irreducible over the base of degree d (or e).  So the tower is fixed by two
canonical moduli: modulus_base, of degree e over F_p, and modulus_ext, of
degree d over F_q.  Coefficient vectors are always ordered low degree first,
so "lexicographically least" compares the constant term before the linear
term and so on.

An element of F_{q^d} is one int, its index: the base-p number whose digit
k = i + e*j is the coefficient of x^i * y^j, where x generates F_q over F_p
and y generates F_{q^d} over F_q.  So F_q is exactly the indices below q.
The m = e*d coordinates (`GFElem.coords`) are a table lookup.  Each tower
keeps int lists for the powers g^k of a deterministic generator g (exp), the
discrete logarithm of every nonzero index (log) and the Zech logarithms
log(1 + g^k) (zech): a product adds two logarithms, and a sum needs one Zech
lookup.  Every table derives from basis_mul_table, the products of the m
basis elements, by linear algebra over F_p, and FieldSpec.mul_matrices is
the one builder of multiplication matrices from it.

Dense polynomials come at two levels.  A polynomial over a tower (GFPoly,
F[theta]) stores the trimmed tuple of its coefficients' field indices, and
its arithmetic is the _ix_* kernels: int-list loops on the tower's log, exp
and zech lists that skip zero coefficients on both sides of a product.  The
level above, polynomials whose coefficients are GFPoly (the torsion-field
numerators) or torsion-field elements (the interpolation polynomials), uses
the generic poly_* helpers over any coefficient type with + - * and
is_zero; poly_pdivmod divides there without a coefficient inverse.
power is the one square-and-multiply, over any product passed to it.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    FieldMismatchError,
    NoRootError,
    NotIrreducibleError,
    NotPrimeError,
    PolyZeroDivisionError,
    ShapeMismatchError,
    SizeLimitError,
    ZeroInverseError,
)

MAX_Q = 16
MAX_ORDER = 4096
# largest degree q^j of a polynomial built from a j-fold q-power recursion
DEG_LIMIT = 4096
# largest number q^j of polynomials enumerated at once
ENUM_LIMIT = 65536


def _prime_factors(n: int) -> list[int]:
    out = []
    k = 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Coefficient-list polynomials over a ring-like coefficient type: the
# torsion-field numerators, whose coefficients are GFPoly, and the
# interpolation polynomials, whose coefficients are CycElem.  Results are
# trimmed: no trailing coefficient is_zero().  zero and one are the
# coefficient ring's constants, passed in, never built here.


def poly_trim(cs) -> list:
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def poly_add(a, b, zero) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        if not y.is_zero():
            out[i] = out[i] + y
    return poly_trim(out)


def poly_sub(a, b, zero) -> list:
    return poly_add(a, [-c for c in b], zero)


def poly_mul(a, b, zero) -> list:
    """Schoolbook product; skips zero factors on both sides."""
    if not a or not b:
        return []
    nz = [(k, y) for k, y in enumerate(b) if not y.is_zero()]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for k, y in nz:
            out[i + k] = out[i + k] + x * y
    return poly_trim(out)


def poly_pdivmod(a, b, zero, one, support=None) -> tuple[object, list, list]:
    """Pseudo-division, with no coefficient inverse: (s, quot, rem) with
    s * a = quot * b + rem and deg rem < deg b, where s is a power of the
    leading coefficient of b, and s = one when b is monic.  Each step
    subtracts only at support, the pairs (k, b_k) of the nonzero b_k below
    the top; a caller that divides by one b many times builds it once.
    """
    b = poly_trim(b)
    if not b:
        raise PolyZeroDivisionError("polynomial division by zero")
    rem = poly_trim(a)
    db = len(b) - 1
    if support is None:
        support = [(k, c) for k, c in enumerate(b[:db]) if not c.is_zero()]
    lead = b[-1]
    monic = lead == one
    s = one
    quot = [zero] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c.is_zero():
            continue
        if not monic:
            s = s * lead
            rem[:i] = [x if x.is_zero() else lead * x for x in rem[:i]]
            quot[i - db + 1 :] = [lead * x for x in quot[i - db + 1 :]]
        quot[i - db] = c
        # the top coefficient cancels exactly and is cut below
        for k, y in support:
            rem[i - db + k] = rem[i - db + k] - c * y
    return s, poly_trim(quot), poly_trim(rem[:db])


def poly_eval(cs, x, zero=None):
    """Horner's rule from the top coefficient; zero for the empty list."""
    if not cs:
        return zero
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * x + c
    return acc


def poly_degree(cs) -> int:
    """Degree of an untrimmed list; -1 for the zero polynomial."""
    return len(poly_trim(cs)) - 1


def power(x, n: int, mul=operator.mul):
    """x^n for n >= 1: x times the squares x^(2^i) at the set bits of n - 1.

    Every mul passed here is exact, or exact modulo a fixed ideal, except
    RamLaurent's, and there x^n's rows and precision depend on n alone.  An
    exact x has exact powers.  Else let x have stored terms X, valuation v,
    precision p and P_k = min(p + (k - 1) v, PREC_EXACT).  mul_prec gives
    x^a x^b the precision min(P_a + b v, P_b + a v, PREC_EXACT) = P_(a+b);
    x^a, x^b differ from X^a, X^b only at exponents >= P_a, P_b, so their
    product differs from X^(a+b) only at exponents >= P_(a+b); its valuation
    is (a + b) v, as leading coefficients multiply to nonzero when v < p and
    a term-free x (v = p) has term-free powers.  By induction every x^k
    formed has the rows of X^k below P_k, whatever the order of products.
    """
    if n < 1:
        raise ConfigError("power exponent must be >= 1")
    out, n = x, n - 1
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


# ---------------------------------------------------------------------------
# Index kernels: polynomials over one tower F as field-index lists, low degree
# first, on F's log, exp and zech lists.  Every logarithm sum here stays below
# 2N, N = |F| - 1, and every difference above -2N: exp and zech have 2N
# entries, so neither needs a reduction and a negative index wraps.  Results
# are trimmed tuples.


def _ix_trim(cs) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _ix_add(F, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    log, exp, zech = F.log, F.exp, F.zech
    out = list(a)
    for k, y in enumerate(b):
        if y:
            x = out[k]
            if x:
                lx = log[x]
                z = zech[log[y] - lx]
                out[k] = exp[lx + z] if z >= 0 else 0
            else:
                out[k] = y
    return _ix_trim(out) if len(a) == len(b) else tuple(out)


def _ix_scale(F, a, c: int) -> tuple:
    """c * a for a field index c."""
    if not c:
        return ()
    log, exp = F.log, F.exp
    lc = log[c]
    return tuple(exp[log[x] + lc] if x else 0 for x in a)


def _ix_mul(F, a, b) -> tuple:
    if not a or not b:
        return ()
    log, exp, zech = F.log, F.exp, F.zech
    lb = [(k, log[y]) for k, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        lx = log[x]
        for k, ly in lb:
            o = out[i + k]
            if o:
                lo = log[o]
                z = zech[lx + ly - lo]
                out[i + k] = exp[lo + z] if z >= 0 else 0
            else:
                out[i + k] = exp[lx + ly]
    return _ix_trim(out)


def _ix_divmod(F, a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder by a nonzero b: each step subtracts q_i * b
    at the nonzero coefficients of b below its top only."""
    db = len(b) - 1
    log, exp, zech = F.log, F.exp, F.zech
    N = F.order - 1
    inv_lead = N - log[b[-1]]
    # logarithms of -b_k
    nb = [(k, (log[c] + F.log_neg_one) % N) for k, c in enumerate(b[:db]) if c]
    rem = list(a)
    quot = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        lq = (log[c] + inv_lead) % N
        quot[i - db] = exp[lq]
        for k, lb in nb:
            j = i - db + k
            o = rem[j]
            if o:
                lo = log[o]
                z = zech[lq + lb - lo]
                rem[j] = exp[lo + z] if z >= 0 else 0
            else:
                rem[j] = exp[lq + lb]
    return tuple(quot), _ix_trim(rem[:db])


def _ix_gcd(F, a, b) -> tuple:
    """Monic gcd; () when both inputs are zero."""
    while b:
        a, b = b, _ix_divmod(F, a, b)[1]
    return _ix_scale(F, a, F.exp[-F.log[a[-1]]]) if a else ()


def _ix_powmod(F, a, n: int, m) -> tuple:
    """a^n modulo m of degree >= 1, n >= 1."""
    return power(_ix_divmod(F, a, m)[1], n, lambda x, y: _ix_divmod(F, _ix_mul(F, x, y), m)[1])


def _ix_qpow(F, a, j: int) -> tuple:
    """a^(q^j): c^(q^j) at exponent k * q^j for each c at k; p-th powers add."""
    if j == 0 or not a:
        return a
    log, exp = F.log, F.exp
    N = F.order - 1
    step = F.q**j
    out = [0] * ((len(a) - 1) * step + 1)
    out[::step] = [exp[log[x] * step % N] if x else 0 for x in a]
    return tuple(out)


# ---------------------------------------------------------------------------


def _lex_least_irreducible(base: "FieldSpec", deg: int) -> "GFPoly":
    """Lex-least monic irreducible of the given degree over the base tower."""
    for tail in itertools.product(range(base.order), repeat=deg):
        f = base.poly(list(tail) + [1])
        if f.is_irreducible():
            return f
    raise NotIrreducibleError(f"no irreducible of degree {deg}")


def _basis_mul_table(base: "FieldSpec", f: "GFPoly") -> np.ndarray:
    """Coordinates of the products of the basis x^i y^j of base[y]/(f)."""
    n, mb = f.degree, base.m
    # y^s reduced modulo the monic f, for every s a basis product reaches
    ys = [_ix_divmod(base, (0,) * s + (1,), f.idx)[1] for s in range(2 * n - 1)]
    xs = [base.from_index(base.p**i) for i in range(mb)]
    T = np.zeros((mb * n,) * 3, dtype=np.int8)
    for i1, i2, j1, j2 in itertools.product(range(mb), range(mb), range(n), range(n)):
        c = _ix_scale(base, ys[j1 + j2], (xs[i1] * xs[i2]).index)
        row = [k for t in c for k in base._coords[t]]
        T[i1 + mb * j1, i2 + mb * j2, : len(row)] = row
    return T


def _mat_pow(M: np.ndarray, n: int, p: int) -> np.ndarray:
    return power(M, n, lambda a, b: a @ b % p) if n else np.eye(M.shape[0], dtype=np.int64)


class FieldSpec:
    """The tower F_p < F_q < F_{q^d} with canonical moduli and log tables.

    Built by make_field; instances are cached and shared, so identity
    comparison is safe for context checks.  base is the tower this one is a
    simple extension of (None for F_p itself).
    """

    def __init__(self, p: int, e: int, d: int):
        if _prime_factors(p) != [p]:
            raise NotPrimeError(f"p = {p} is not prime")
        if e < 1 or d < 1:
            raise SizeLimitError("e and d must be >= 1")
        q = p**e
        if q > MAX_Q:
            raise SizeLimitError(f"q = {q} exceeds desk limit {MAX_Q}")
        if q**d > MAX_ORDER:
            raise SizeLimitError(f"q^d = {q**d} exceeds desk limit {MAX_ORDER}")
        self.p, self.e, self.d = p, e, d
        self.q = q
        self.order = q**d
        self.m = e * d
        if self.m == 1:
            self.base = None
            self.modulus_base = self.modulus_ext = (0, 1)
            self.basis_mul_table = np.ones((1, 1, 1), dtype=np.int8)
        else:
            self.base = make_field(p, e, 1) if d > 1 else make_field(p, 1, 1)
            f = _lex_least_irreducible(self.base, d if d > 1 else e)
            idx = f.idx
            if d > 1:
                self.modulus_base, self.modulus_ext = self.base.modulus_base, idx
            else:
                self.modulus_base, self.modulus_ext = idx, (0, 1)
            self.basis_mul_table = _basis_mul_table(self.base, f)
        self._build_tables()

    def coord_rows(self, idx) -> np.ndarray:
        """Coordinate rows of an int array of indices."""
        place = self.p ** np.arange(self.m, dtype=np.int64)
        return np.asarray(idx, dtype=np.int64)[:, None] // place % self.p

    def _build_tables(self):
        p, m = self.p, self.m
        N = self.order - 1
        place = p ** np.arange(m, dtype=np.int64)
        one = np.eye(1, m, dtype=np.int64)[0]
        factors = _prime_factors(N) if N > 1 else []
        # the first candidate in coordinate-lex order whose (N/r)-th powers
        # all differ from 1; row vector times S multiplies by the candidate
        for cand in itertools.product(range(p), repeat=m):
            if not any(cand):
                continue
            S = self.mul_matrices(cand)
            if all((_mat_pow(S, N // r, p)[0] != one).any() for r in factors):
                break
        self.generator_coords = cand
        # g^k for 0 <= k < 2N by doubling, so a sum of two logarithms and a
        # negated logarithm (a negative list index) need no reduction
        E, M = one[None, :], S
        while E.shape[0] < 2 * N:
            E = np.vstack([E, E @ M % p])
            M = M @ M % p
        self.exp = (E[: 2 * N] @ place).tolist()
        self.log = [0] * self.order
        for k in range(N):
            self.log[self.exp[k]] = k
        # 1 + x adds one to digit 0; -1 marks 1 + g^k = 0; two periods, as exp
        zech = []
        for x in self.exp[:N]:
            y = x + 1 if x % p != p - 1 else x - (p - 1)
            zech.append(self.log[y] if y else -1)
        self.zech = zech * 2
        self.log_neg_one = self.log[p - 1]
        frob = [self.exp[self.log[p**i] * self.q % N] for i in range(m)]
        self.frob_matrix = self.coord_rows(frob).astype(np.int8)
        self._coords = [tuple(r) for r in self.coord_rows(np.arange(self.order)).tolist()]
        self.elems = [GFElem(self, i) for i in range(self.order)]
        self.zero, self.one = self.elems[0], self.elems[1]

    # -- element constructors

    def elem(self, coords: Sequence[int]) -> "GFElem":
        if len(coords) != self.m:
            raise FieldMismatchError("coordinate length mismatch")
        idx = 0
        for c in reversed(coords):
            idx = idx * self.p + int(c) % self.p
        return self.elems[idx]

    def from_index(self, idx: int) -> "GFElem":
        return self.elems[idx % self.order]

    def from_subfield(self, sub_idx: int) -> "GFElem":
        """Inject an F_q element (by subfield index) into the full field."""
        if not 0 <= sub_idx < self.q:
            raise FieldMismatchError(f"subfield index {sub_idx} out of range")
        return self.elems[sub_idx]

    def elements(self) -> Iterator["GFElem"]:
        """All field elements in canonical coefficient-lex order."""
        for coords in itertools.product(range(self.p), repeat=self.m):
            yield self.elem(coords)

    def poly(self, coeffs: Sequence, var: str = "theta") -> "GFPoly":
        """A polynomial from GFElem coefficients or F_q indices."""
        out = []
        for c in coeffs:
            if not isinstance(c, GFElem):
                c = self.from_subfield(int(c))
            elif c.field is not self:
                raise FieldMismatchError("coefficient from another tower")
            out.append(c.index)
        return _gfpoly(self, _ix_trim(out), var)

    def mul_matrices(self, C) -> np.ndarray:
        """(..., m, m) int64 multiplication matrices of (..., m) coordinate rows:
        x @ mul_matrices(C)[i] are the coordinates of x * C[i].  The one
        reading of basis_mul_table outside the tables and Completion.mul_rows."""
        T = self.basis_mul_table.astype(np.int64)
        return np.einsum("ijk,...j->...ik", T, np.asarray(C, dtype=np.int64)) % self.p

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e}, d={self.d})"


class GFElem:
    """Element of the F_{q^d} tower, stored as its index (base-p coordinate digits).

    Each tower holds one instance per index (FieldSpec.elems); the operations
    look results up there instead of building new objects.
    """

    __slots__ = ("field", "index")

    def __init__(self, field: FieldSpec, index: int):
        self.field = field
        self.index = index

    @property
    def coords(self) -> tuple[int, ...]:
        return self.field._coords[self.index]

    def is_zero(self) -> bool:
        return not self.index

    def __add__(self, other):
        f = self.field
        if f is not other.field:
            raise FieldMismatchError("elements from different towers")
        if not self.index:
            return other
        if not other.index:
            return self
        # g^a + g^b = g^a (1 + g^(b-a)); a negative b-a indexes from the end
        la = f.log[self.index]
        z = f.zech[f.log[other.index] - la]
        return f.zero if z < 0 else f.elems[f.exp[la + z]]

    def __neg__(self):
        f = self.field
        if not self.index:
            return self
        return f.elems[f.exp[f.log[self.index] + f.log_neg_one]]

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if f is not other.field:
            raise FieldMismatchError("elements from different towers")
        if not self.index or not other.index:
            return f.zero
        return f.elems[f.exp[f.log[self.index] + f.log[other.index]]]

    def inv(self) -> "GFElem":
        f = self.field
        if not self.index:
            raise ZeroInverseError("inverse of zero field element")
        return f.elems[f.exp[-f.log[self.index]]]

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n: int):
        f = self.field
        if not self.index:
            if n == 0:
                return f.one
            if n < 0:
                raise ZeroInverseError("negative power of zero")
            return f.zero
        return f.elems[f.exp[f.log[self.index] * n % (f.order - 1)]]

    def __eq__(self, other):
        return (
            isinstance(other, GFElem)
            and self.field is other.field
            and self.index == other.index
        )

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __repr__(self):
        return str(self.index)


class GFPoly:
    """Dense polynomial over a FieldSpec, tagged with its indeterminate name.

    Stored once, as idx: the trimmed tuple of its coefficients' field indices,
    low degree first, for the _ix_* kernels.  coeffs is a GFElem view of idx.
    """

    __slots__ = ("field", "idx", "var")

    def __init__(self, field: FieldSpec, coeffs: Sequence[GFElem], var: str = "theta"):
        self.field = field
        self.idx = _ix_trim([c.index for c in coeffs])
        self.var = var

    def _check(self, other: "GFPoly"):
        if self.field is not other.field:
            raise FieldMismatchError("polynomials over different towers")
        if self.var != other.var:
            raise FieldMismatchError(f"indeterminate mismatch: {self.var} vs {other.var}")

    def _new(self, idx: tuple) -> "GFPoly":
        return _gfpoly(self.field, idx, self.var)

    @property
    def coeffs(self) -> tuple[GFElem, ...]:
        elems = self.field.elems
        return tuple(elems[i] for i in self.idx)

    @property
    def degree(self) -> int:
        """Degree; -1 is the sentinel for the zero polynomial."""
        return len(self.idx) - 1

    def is_zero(self) -> bool:
        return not self.idx

    @property
    def lead(self) -> GFElem:
        if not self.idx:
            raise PolyZeroDivisionError("zero polynomial has no leading coefficient")
        return self.field.elems[self.idx[-1]]

    def is_monic(self) -> bool:
        return bool(self.idx) and self.idx[-1] == 1

    def coeff(self, k: int) -> GFElem:
        return self.field.elems[self.idx[k] if 0 <= k < len(self.idx) else 0]

    def __add__(self, other):
        self._check(other)
        return self._new(_ix_add(self.field, self.idx, other.idx))

    def __neg__(self):
        return self._new(_ix_scale(self.field, self.idx, self.field.p - 1))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GFElem):
            return self.scale(other)
        self._check(other)
        return self._new(_ix_mul(self.field, self.idx, other.idx))

    def scale(self, c: GFElem) -> "GFPoly":
        return self._new(_ix_scale(self.field, self.idx, c.index))

    def __divmod__(self, other: "GFPoly"):
        self._check(other)
        if not other.idx:
            raise PolyZeroDivisionError("polynomial division by zero")
        q, r = _ix_divmod(self.field, self.idx, other.idx)
        return self._new(q), self._new(r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def gcd(self, other: "GFPoly") -> "GFPoly":
        return self._new(_ix_gcd(self.field, self.idx, other.idx))

    def eval(self, x: GFElem) -> GFElem:
        """The remainder of self by theta - x."""
        if x.field is not self.field:
            raise FieldMismatchError("evaluation point from another tower")
        r = _ix_divmod(self.field, self.idx, ((-x).index, 1))[1]
        return self.field.elems[r[0] if r else 0]

    def qpow(self, j: int = 1) -> "GFPoly":
        """self^(q^j): every coefficient to the q^j-th power, exponents times q^j."""
        return self._new(_ix_qpow(self.field, self.idx, j))

    def subfield_coeff_indices(self) -> tuple[int, ...]:
        """Coefficients as F_q indices; raises if any lies outside F_q."""
        if self.idx and max(self.idx) >= self.field.q:
            raise FieldMismatchError("coefficient not in F_q")
        return self.idx

    def is_irreducible(self) -> bool:
        """Irreducibility over F_q by the Frobenius-gcd criterion.

        Requires all coefficients in F_q.  The criterion is computed in the
        tower itself: a gcd does not change under a field extension.
        """
        f = self.subfield_coeff_indices()
        F, n, q = self.field, self.degree, self.field.q
        if n <= 1 or not f[0]:
            return n == 1  # of degree >= 2 and divisible by the indeterminate
        x, minus_x = (0, 1), (0, F.p - 1)
        if _ix_powmod(F, x, q**n, f) != x:
            return False
        for r in _prime_factors(n):
            u = _ix_powmod(F, x, q ** (n // r), f)
            if len(_ix_gcd(F, _ix_add(F, u, minus_x), f)) != 1:
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, GFPoly) and self.field is other.field
                and self.var == other.var and self.idx == other.idx)

    def __hash__(self):
        return hash((id(self.field), self.var, self.idx))

    def __repr__(self):
        if not self.idx:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k).index
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                exp = self.var if k == 1 else f"{self.var}^{k}"
                parts.append(head + exp)
        return " + ".join(parts)


def _gfpoly(field: FieldSpec, idx: tuple, var: str) -> GFPoly:
    """A GFPoly on an index tuple that is already trimmed."""
    out = object.__new__(GFPoly)
    out.field, out.idx, out.var = field, idx, var
    return out


_FIELD_CACHE: dict[tuple[int, int, int], FieldSpec] = {}


def make_field(p: int, e: int, d: int) -> FieldSpec:
    """Build (or fetch) the canonical tower for (p, e, d); deterministic."""
    key = (p, e, d)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec(p, e, d)
    return _FIELD_CACHE[key]


def roots_in_ext(f: GFPoly, spec: FieldSpec) -> list[GFElem]:
    """All roots in F_{q^d} of a monic irreducible f over F_q.

    Returned in canonical coefficient-lex order; the root count equals deg f
    (roots come in Frobenius orbits) and deg f must divide d.
    """
    if f.field is not spec:
        raise FieldMismatchError("polynomial not over the given tower")
    if not f.is_monic():
        raise NotIrreducibleError("modulus must be monic")
    if not f.is_irreducible():
        raise NotIrreducibleError(f"{f!r} is reducible over F_q")
    if spec.d % f.degree != 0:
        raise NoRootError(f"degree {f.degree} does not divide d = {spec.d}")
    roots = [x for x in spec.elements() if f.eval(x).is_zero()]
    if len(roots) != f.degree:
        raise NoRootError("root count mismatch")
    return roots


def enumerate_A(spec: FieldSpec, j: int, monic: bool = False) -> list[GFPoly]:
    """Polynomials over F_q: all of degree < j, or all monic of degree exactly j.

    Order is by integer index base q with the constant coefficient as the
    least significant digit.
    """
    if j < 0 or spec.q**j > ENUM_LIMIT:
        raise SizeLimitError(f"enumeration of size q^{j} refused")
    top = (1,) if monic else ()
    return [_gfpoly(spec, _ix_trim(ds[::-1] + top), "theta")
            for ds in itertools.product(range(spec.q), repeat=j)]


def degree_guard(q: int, j: int):
    """Refuse a polynomial built by a j-fold q-power recursion (D_j, the
    action of a degree-j element, e_j, a depth-j telescope) once q^j >
    DEG_LIMIT: the one home of that rule."""
    if q**j > DEG_LIMIT:
        raise SizeLimitError(f"degree q^{j} beyond the polynomial guard")


def carlitz_dl(spec: FieldSpec, j: int, var: str = "theta") -> tuple[GFPoly, GFPoly]:
    """(D_j, l_j) in F_q[var]: the product of all monic polynomials of degree
    j, and (-1)^j times their least common multiple.

    Both come from the brackets [i] = var^{q^i} - var: D_0 = l_0 = 1,
    D_i = [i] * D_{i-1}^q and l_i = -[i] * l_{i-1}.
    """
    if j < 0:
        raise ShapeMismatchError("index must be >= 0")
    degree_guard(spec.q, j)
    q = spec.q
    d = ell = _gfpoly(spec, (1,), var)
    for i in range(1, j + 1):
        brk = _gfpoly(spec, (0, spec.p - 1) + (0,) * (q**i - 2) + (1,), var)
        d = brk * d.qpow(1)
        ell = (-brk) * ell
    return d, ell


class RatFunc:
    """Placeholder name: carlitz has no rational-function type.

    The torsion layer keeps integral numerators over one denominator
    (cyclotomic.CycElem).  The name stays because bench/tracer.py wraps
    ``fields.RatFunc.__init__``; it goes with that tracer entry.
    """

    def __init__(self, *args):
        raise TypeError("no rational-function type; see cyclotomic.CycElem")
