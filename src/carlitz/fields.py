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
basis elements, by linear algebra over F_p.

The poly_* helpers are the one dense-polynomial implementation.  They take
coefficient lists, low degree first, over any coefficient type with + - *
and is_zero.  poly_pdivmod divides without a coefficient inverse, so it
serves coefficients in F_q[theta] (the torsion-field numerators) as well;
poly_divmod, poly_gcd and poly_powmod, which GFPoly uses over field
elements, need inv too.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from .errors import (
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


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
# Coefficient-list polynomials over a ring-like coefficient type.  Results
# are trimmed: no trailing coefficient is_zero().  zero and one are the
# coefficient ring's constants, passed in, never built here.


def poly_trim(cs) -> list:
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def poly_add(a, b, zero) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(x + y)
    return poly_trim(out)


def poly_sub(a, b, zero) -> list:
    return poly_add(a, [-c for c in b], zero)


def poly_mul(a, b, zero) -> list:
    """Schoolbook product; skips zero left factors."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for k, y in enumerate(b):
            out[i + k] = out[i + k] + x * y
    return poly_trim(out)


def poly_pdivmod(a, b, zero, one) -> tuple[object, list, list]:
    """Pseudo-division, with no coefficient inverse: (s, quot, rem) with
    s * a = quot * b + rem and deg rem < deg b, where s is a power of the
    leading coefficient of b, and s = one when b is monic."""
    b = poly_trim(b)
    if not b:
        raise PolyZeroDivisionError("polynomial division by zero")
    rem = poly_trim(a)
    db = len(b) - 1
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
            rem[:i] = [lead * x for x in rem[:i]]
            quot[i - db + 1 :] = [lead * x for x in quot[i - db + 1 :]]
        quot[i - db] = c
        # the top coefficient cancels exactly and is cut below
        for k in range(db):
            rem[i - db + k] = rem[i - db + k] - c * b[k]
    return s, poly_trim(quot), poly_trim(rem[:db])


def poly_divmod(a, b, zero) -> tuple[list, list]:
    """Quotient and remainder over a field: pseudo-division by b made monic."""
    b = poly_trim(b)
    if not b:
        raise PolyZeroDivisionError("polynomial division by zero")
    lead_inv = b[-1].inv()
    one = b[-1] * lead_inv
    _, quot, rem = poly_pdivmod(a, [c * lead_inv for c in b], zero, one)
    return [c * lead_inv for c in quot], rem


def poly_gcd(a, b, zero) -> list:
    """Monic gcd; the empty list when both inputs are zero."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b, zero)[1]
    if a:
        inv = a[-1].inv()
        a = [c * inv for c in a]
    return a


def poly_powmod(a, n: int, mod, zero, one) -> list:
    result = [one]
    base = poly_divmod(a, mod, zero)[1]
    while n:
        if n & 1:
            result = poly_divmod(poly_mul(result, base, zero), mod, zero)[1]
        n >>= 1
        if n:
            base = poly_divmod(poly_mul(base, base, zero), mod, zero)[1]
    return result


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


# ---------------------------------------------------------------------------


def _lex_least_irreducible(base: "FieldSpec", deg: int) -> "GFPoly":
    """Lex-least monic irreducible of the given degree over the base tower."""
    for tail in itertools.product(range(base.order), repeat=deg):
        f = base.poly(list(tail) + [1])
        if f.is_irreducible():
            return f
    raise NotIrreducibleError(f"no irreducible of degree {deg}")


def _basis_mul_table(base: "FieldSpec", f: Sequence["GFElem"]) -> np.ndarray:
    """Coordinates of the products of the basis x^i y^j of base[y]/(f)."""
    n, mb = len(f) - 1, base.m
    zero = base.zero
    # y^s reduced modulo the monic f, for every s a basis product reaches
    ys = [[base.one if t == s else zero for t in range(n)] for s in range(n)]
    for _ in range(n - 1):
        prev = ys[-1]
        ys.append([(prev[t - 1] if t else zero) - prev[-1] * f[t] for t in range(n)])
    xs = [base.from_index(base.p**i) for i in range(mb)]
    m = mb * n
    T = np.zeros((m, m, m), dtype=np.int8)
    for i1, i2 in itertools.product(range(mb), repeat=2):
        c = xs[i1] * xs[i2]
        for j1, j2 in itertools.product(range(n), repeat=2):
            row = T[i1 + mb * j1, i2 + mb * j2]
            for t, y in enumerate(ys[j1 + j2]):
                row[mb * t : mb * (t + 1)] = (c * y).coords
    return T


def _mat_pow(M: np.ndarray, n: int, p: int) -> np.ndarray:
    out = np.eye(M.shape[0], dtype=np.int64)
    while n:
        if n & 1:
            out = out @ M % p
        n >>= 1
        if n:
            M = M @ M % p
    return out


class FieldSpec:
    """The tower F_p < F_q < F_{q^d} with canonical moduli and log tables.

    Built by make_field; instances are cached and shared, so identity
    comparison is safe for context checks.  base is the tower this one is a
    simple extension of (None for F_p itself).
    """

    def __init__(self, p: int, e: int, d: int):
        if not _is_prime(p):
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
            idx = tuple(c.index for c in f.coeffs)
            if d > 1:
                self.modulus_base, self.modulus_ext = self.base.modulus_base, idx
            else:
                self.modulus_base, self.modulus_ext = idx, (0, 1)
            self.basis_mul_table = _basis_mul_table(self.base, f.coeffs)
        self._build_tables()

    def coord_rows(self, idx) -> np.ndarray:
        """Coordinate rows of an int array of indices."""
        place = self.p ** np.arange(self.m, dtype=np.int64)
        return np.asarray(idx, dtype=np.int64)[:, None] // place % self.p

    def _build_tables(self):
        p, m = self.p, self.m
        N = self.order - 1
        T = self.basis_mul_table.astype(np.int64)
        place = p ** np.arange(m, dtype=np.int64)
        one = np.eye(1, m, dtype=np.int64)[0]
        factors = _prime_factors(N) if N > 1 else []
        # the first candidate in coordinate-lex order whose (N/r)-th powers
        # all differ from 1; row vector times S multiplies by the candidate
        for cand in itertools.product(range(p), repeat=m):
            if not any(cand):
                continue
            S = np.tensordot(T, np.array(cand, dtype=np.int64), axes=([1], [0])) % p
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
        # 1 + x adds one to digit 0; -1 marks 1 + g^k = 0
        self.zech = []
        for x in self.exp[:N]:
            y = x + 1 if x % p != p - 1 else x - (p - 1)
            self.zech.append(self.log[y] if y else -1)
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

    def subfield_elements(self) -> Iterator["GFElem"]:
        return iter(self.elems[: self.q])

    def poly(self, coeffs: Sequence, var: str = "theta") -> "GFPoly":
        out = []
        for c in coeffs:
            if isinstance(c, GFElem):
                if c.field is not self:
                    raise FieldMismatchError("coefficient from another tower")
                out.append(c)
            else:
                out.append(self.from_subfield(int(c)))
        return GFPoly(self, tuple(out), var)

    def scalar_matrix(self, elem: "GFElem") -> np.ndarray:
        """m x m int64 matrix of left-multiplication by elem on coordinates."""
        v = np.array(elem.coords, dtype=np.int64)
        return np.tensordot(self.basis_mul_table.astype(np.int64), v, axes=([1], [0])) % self.p

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

    def frobenius(self, k: int = 1) -> "GFElem":
        """x -> x^(q^k)."""
        return self ** (self.field.q**k) if self.index else self

    def in_subfield(self) -> bool:
        """True iff the element lies in F_q, which is exactly the indices below q."""
        return self.index < self.field.q

    @property
    def subfield_index(self) -> int:
        if not self.in_subfield():
            raise FieldMismatchError("element not in F_q")
        return self.index

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
    """Dense polynomial over a FieldSpec, tagged with its indeterminate name."""

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field: FieldSpec, coeffs: tuple[GFElem, ...], var: str = "theta"):
        self.field = field
        self.coeffs = tuple(poly_trim(coeffs))
        self.var = var

    def _check(self, other: "GFPoly"):
        if self.field is not other.field:
            raise FieldMismatchError("polynomials over different towers")
        if self.var != other.var:
            raise FieldMismatchError(f"indeterminate mismatch: {self.var} vs {other.var}")

    def _new(self, coeffs) -> "GFPoly":
        return GFPoly(self.field, coeffs, self.var)

    @property
    def degree(self) -> int:
        """Degree; -1 is the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> GFElem:
        if self.is_zero():
            raise PolyZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lead == self.field.one

    def coeff(self, k: int) -> GFElem:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero

    def __add__(self, other):
        self._check(other)
        return self._new(poly_add(self.coeffs, other.coeffs, self.field.zero))

    def __neg__(self):
        return self._new(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GFElem):
            return self.scale(other)
        self._check(other)
        return self._new(poly_mul(self.coeffs, other.coeffs, self.field.zero))

    def scale(self, c: GFElem) -> "GFPoly":
        return self._new(tuple(a * c for a in self.coeffs))

    def __divmod__(self, other: "GFPoly"):
        self._check(other)
        q, r = poly_divmod(self.coeffs, other.coeffs, self.field.zero)
        return self._new(q), self._new(r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def gcd(self, other: "GFPoly") -> "GFPoly":
        return self._new(poly_gcd(self.coeffs, other.coeffs, self.field.zero))

    def eval(self, x: GFElem) -> GFElem:
        if x.field is not self.field:
            raise FieldMismatchError("evaluation point from another tower")
        return poly_eval(self.coeffs, x, self.field.zero)

    def qpow(self, j: int = 1) -> "GFPoly":
        """self^(q^j): every coefficient to the q^j-th power, exponents times q^j.

        Raising to a power of p is additive in characteristic p, so the
        power of a sum is the sum of the powers of its terms.
        """
        if j == 0 or self.is_zero():
            return self
        step = self.field.q**j
        out = [self.field.zero] * (self.degree * step + 1)
        out[::step] = [c.frobenius(j) for c in self.coeffs]
        return self._new(out)

    def retag(self, var: str) -> "GFPoly":
        return GFPoly(self.field, self.coeffs, var)

    def subfield_coeff_indices(self) -> list[int]:
        """Coefficients as F_q indices; raises if any lies outside F_q."""
        return [c.subfield_index for c in self.coeffs]

    def is_irreducible(self) -> bool:
        """Irreducibility over F_q by the Frobenius-gcd criterion.

        Requires all coefficients in F_q.  The criterion is computed in the
        tower itself: a gcd does not change under a field extension.
        """
        self.subfield_coeff_indices()
        f, n, q = self.coeffs, self.degree, self.field.q
        if n < 1:
            return False
        if n == 1:
            return True
        zero, one = self.field.zero, self.field.one
        if f[0].is_zero():
            return False  # divisible by the indeterminate
        x = [zero, one]
        if poly_powmod(x, q**n, f, zero, one) != x:
            return False
        for r in _prime_factors(n):
            u = poly_powmod(x, q ** (n // r), f, zero, one)
            if len(poly_gcd(poly_sub(u, x, zero), f, zero)) != 1:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, GFPoly)
            and self.field is other.field
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.var, tuple(c.index for c in self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c.index))
            else:
                head = "" if c == self.field.one else f"{c.index}*"
                exp = self.var if k == 1 else f"{self.var}^{k}"
                parts.append(head + exp)
        return " + ".join(parts)


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


def enumerate_A(spec: FieldSpec, j: int, monic: bool = False, var: str = "theta") -> list[GFPoly]:
    """Polynomials over F_q: all of degree < j, or all monic of degree exactly j.

    Order is by integer index base q with the constant coefficient as the
    least significant digit.
    """
    if j < 0 or spec.q**j > ENUM_LIMIT:
        raise SizeLimitError(f"enumeration of size q^{j} refused")
    out = []
    for n in range(spec.q**j):
        digits = []
        t = n
        for _ in range(j):
            digits.append(spec.from_subfield(t % spec.q))
            t //= spec.q
        if monic:
            digits.append(spec.one)
        out.append(GFPoly(spec, tuple(digits), var))
    return out


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
    d = ell = GFPoly(spec, (spec.one,), var)
    for i in range(1, j + 1):
        brk = [spec.zero] * (q**i + 1)
        brk[1] = -spec.one
        brk[q**i] = spec.one
        brk = GFPoly(spec, tuple(brk), var)
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
