"""Exact torsion arithmetic for the Carlitz module.

Linearized polynomials over the rational function field, prime-torsion
fields with their Galois action, Gauss sums, interpolation polynomials,
and the exact telescope identity.  Everything here is exact; the only
numerics is the final embedding into the completion.
"""

from .errors import (
    FieldMismatchError,
    InvariantError,
    NotCoprimeError,
    NotInvertibleError,
    NotIrreducibleError,
    PrecisionExhaustedError,
    RootMismatchError,
    ShapeMismatchError,
    SizeLimitError,
    ZeroInverseError,
)
from .fields import (
    DEG_LIMIT,
    GFElem,
    GFPoly,
    RatFunc,
    carlitz_dl,
    enumerate_A,
    poly_add,
    poly_degree,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_trim,
    poly_xgcd,
)
from .functions import SeriesBudget, carlitz_e
from .laurent import Completion, RamLaurent

_TORSION_LIMIT = 512


def _rf_zero(spec, var="theta"):
    return RatFunc.from_poly(GFPoly(spec, (), var))


def _rf_one(spec, var="theta"):
    return RatFunc.from_poly(GFPoly(spec, (spec.one,), var))


def _poly_qpow(p: GFPoly, j: int):
    """p^{q^j} for a polynomial: Frobenius on coefficients, dilated exponents."""
    if j == 0 or p.is_zero():
        return p
    spec = p.field
    step = spec.q**j
    out = [spec.zero] * (p.degree * step + 1)
    for k, c in enumerate(p.coeffs):
        if not c.is_zero():
            out[k * step] = c.frobenius(spec.e * j)
    return GFPoly(spec, tuple(out), p.var)


def _rf_qpow(f: RatFunc, j: int) -> RatFunc:
    return RatFunc(_poly_qpow(f.num, j), _poly_qpow(f.den, j))


class LinPoly:
    """Additive polynomial sum_j c_j Z^{q^j} with rational-function coefficients.

    The representation is the coefficient list indexed by j, so additivity is
    structural; composition is the ring multiplication.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.coeffs = tuple(poly_trim(coeffs))

    @property
    def height(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> RatFunc:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return _rf_zero(self.spec)

    def __add__(self, other: "LinPoly") -> "LinPoly":
        return LinPoly(self.spec, poly_add(self.coeffs, other.coeffs, _rf_zero(self.spec)))

    def __neg__(self) -> "LinPoly":
        return LinPoly(self.spec, [-c for c in self.coeffs])

    def __sub__(self, other: "LinPoly") -> "LinPoly":
        return self + (-other)

    def scale(self, c) -> "LinPoly":
        return LinPoly(self.spec, [f * c for f in self.coeffs])

    def qtwist(self, k: int = 1) -> "LinPoly":
        """Composition with Z^{q^k} on the left: coefficients pushed up."""
        shifted = [_rf_zero(self.spec)] * k + [_rf_qpow(c, k) for c in self.coeffs]
        return LinPoly(self.spec, shifted)

    def compose(self, other: "LinPoly") -> "LinPoly":
        out = LinPoly(self.spec, [])
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            piece = LinPoly(self.spec, [_rf_qpow(g, j) for g in other.coeffs])
            out = out + LinPoly(self.spec,
                                [_rf_zero(self.spec)] * j + list(piece.coeffs)).scale(c)
        return out

    def eval_rf(self, x: RatFunc) -> RatFunc:
        acc = _rf_zero(self.spec)
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                acc = acc + c * _rf_qpow(x, j)
        return acc

    def __eq__(self, other):
        return (isinstance(other, LinPoly) and self.spec is other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "LinPoly(0)"
        parts = [f"({c})*Z^{self.spec.q**j}" for j, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        return "LinPoly(" + " + ".join(parts) + ")"


def carlitz_poly(spec, a: GFPoly) -> LinPoly:
    """The additive polynomial of the module action of a, from theta -> theta Z + Z^q.

    Built as sum_i a_i T^i where T is the action of theta under composition;
    satisfies the two ring laws and the coefficient formula through d_j.
    """
    a.subfield_coeff_indices()
    if a.degree >= 0 and spec.q**a.degree > DEG_LIMIT:
        raise SizeLimitError(f"action of degree-{a.degree} element beyond guard")
    theta_rf = RatFunc.from_poly(GFPoly(spec, (spec.zero, spec.one), "theta"))
    c_theta = LinPoly(spec, [theta_rf, _rf_one(spec)])
    out = LinPoly(spec, [])
    power = LinPoly(spec, [_rf_one(spec)])  # identity Z
    for i, c in enumerate(a.coeffs):
        if i:
            power = c_theta.compose(power)
        if not c.is_zero():
            out = out + power.scale(c)
    return out


def basis_E(spec, j: int) -> LinPoly:
    """The degree-q^j interpolation basis: prod over all a of degree < j of
    (Z - a), divided by d_j.

    Computed by the separable recursion e_j = e_{j-1}^q - v^{q-1} e_{j-1}
    with v = e_{j-1}(theta^{j-1}); the tests pin this against the literal
    product and against the module-action coefficients.
    """
    if spec.q**j > DEG_LIMIT:
        raise SizeLimitError(f"degree q^{j} beyond the polynomial guard")
    e = LinPoly(spec, [_rf_one(spec)])
    for i in range(1, j + 1):
        mono = [spec.zero] * i
        mono[i - 1] = spec.one
        v = e.eval_rf(RatFunc.from_poly(GFPoly(spec, tuple(mono), "theta")))
        scale = v
        for _ in range(spec.q - 2):
            scale = scale * v
        e = e.qtwist(1) - e.scale(scale)
    return e.scale(RatFunc.from_poly(carlitz_dl(spec, j)[0]).inv())


class CycField:
    """Torsion field for a monic prime: residues of Z modulo C_p(Z)/Z.

    Coefficients live in the rational function field over the coefficient
    extension that houses the chosen root zeta.  The modulus is monic of
    degree q^d - 1 and stays irreducible after the constant extension, so
    extended-gcd inversion works; a failure surfaces as NotInvertibleError.
    """

    def __init__(self, spec, prime: GFPoly, zeta: GFElem):
        prime.subfield_coeff_indices()
        if not prime.is_monic() or prime.degree < 1 or not prime.is_irreducible():
            raise NotIrreducibleError("modulus prime must be monic irreducible")
        if zeta.field is not spec:
            raise FieldMismatchError("root from another tower")
        if not prime.eval(zeta).is_zero():
            raise RootMismatchError("zeta is not a root of the prime")
        if spec.q**prime.degree > _TORSION_LIMIT:
            raise SizeLimitError("torsion field beyond the size guard")
        self.spec = spec
        self.prime = prime
        self.zeta = zeta
        self.d = prime.degree
        cp = carlitz_poly(spec, prime)
        dense = [_rf_zero(spec)] * (spec.q**self.d + 1)
        for jj, c in enumerate(cp.coeffs):
            dense[spec.q**jj] = c
        # the action polynomial has no constant term; divide by Z exactly
        self.rho = tuple(dense[1:])
        self._zero_rf = _rf_zero(spec)
        self._one_rf = _rf_one(spec)
        self.cache = {}

    @property
    def zero(self) -> "CycElem":
        return CycElem(self, [])

    @property
    def one(self) -> "CycElem":
        return CycElem(self, [self._one_rf])

    @property
    def lam(self) -> "CycElem":
        # reduce: for q^d = 2 the modulus has degree 1 and lam is a constant
        return self.reduce([self._zero_rf, self._one_rf])

    def const(self, x) -> "CycElem":
        if isinstance(x, GFElem):
            x = RatFunc.from_poly(GFPoly(self.spec, (x,), "theta"))
        elif isinstance(x, GFPoly):
            x = RatFunc.from_poly(x)
        return CycElem(self, [x])

    def reduce(self, coeffs) -> "CycElem":
        return CycElem(self, poly_divmod(coeffs, self.rho, self._zero_rf)[1])

    def __repr__(self):
        return f"CycField(prime={self.prime!r}, deg={self.d})"


class CycElem:
    __slots__ = ("cf", "coeffs")

    def __init__(self, cf: CycField, coeffs):
        cs = poly_trim(coeffs)
        if len(cs) >= len(cf.rho):
            raise ShapeMismatchError("residue not reduced against the modulus")
        self.cf = cf
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other):
        if self.cf is not other.cf:
            raise FieldMismatchError("elements of different torsion fields")

    def __add__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        return CycElem(self.cf, poly_add(self.coeffs, other.coeffs, self.cf._zero_rf))

    def __neg__(self) -> "CycElem":
        return CycElem(self.cf, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other) -> "CycElem":
        if isinstance(other, (RatFunc, GFElem)):
            return CycElem(self.cf, [c * other for c in self.coeffs])
        self._check(other)
        return self.cf.reduce(poly_mul(self.coeffs, other.coeffs, self.cf._zero_rf))

    def inv(self) -> "CycElem":
        if self.is_zero():
            raise ZeroInverseError("inverse of zero in the torsion field")
        g, s, _ = poly_xgcd(self.coeffs, self.cf.rho, self.cf._zero_rf, self.cf._one_rf)
        if len(g) != 1:
            raise NotInvertibleError(
                f"gcd with the modulus has degree {len(g) - 1}; modulus not prime here")
        return self.cf.reduce([c * g[0].inv() for c in s])

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n: int) -> "CycElem":
        if n < 0:
            return self.inv() ** (-n)
        out = self.cf.one
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        return (isinstance(other, CycElem) and self.cf is other.cf
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "CycElem(0)"
        parts = [f"({c})*L^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        return "CycElem(" + " + ".join(parts) + ")"


def make_torsion_field(spec, prime: GFPoly, zeta: GFElem) -> CycField:
    return CycField(spec, prime, zeta)


def action_at_lam(cf: CycField, a: GFPoly) -> CycElem:
    """The module action of a applied to the torsion generator, reduced."""
    key = ("act", a.coeffs)
    if key not in cf.cache:
        cp = carlitz_poly(cf.spec, a)
        acc = cf.zero
        lam_pow = cf.lam
        for j, c in enumerate(cp.coeffs):
            if j:
                for _ in range(cf.spec.e):
                    lam_pow = lam_pow ** cf.spec.p
            if not c.is_zero():
                acc = acc + lam_pow * c
        cf.cache[key] = acc
    return cf.cache[key]


def galois_sigma(a: GFPoly, x: CycElem) -> CycElem:
    """The automorphism fixing constants that moves the generator by the
    module action of a; requires a prime to the modulus.
    """
    cf = x.cf
    a.subfield_coeff_indices()
    if a.gcd(cf.prime).degree != 0:
        raise NotCoprimeError("class of a is not invertible modulo the prime")
    lam_img = action_at_lam(cf, a % cf.prime)
    acc = cf.zero
    for c in reversed(x.coeffs):
        acc = acc * lam_img + cf.const(c)
    return acc


def gauss_sum(cf: CycField) -> CycElem:
    """Character sum over nonzero residues: sum of chi(a)^{-1} C_a(lambda)."""
    key = "gauss"
    if key not in cf.cache:
        acc = cf.zero
        for a in enumerate_A(cf.spec, cf.d):
            if a.is_zero():
                continue
            acc = acc + action_at_lam(cf, a) * a.eval(cf.zeta).inv()
        if acc.is_zero():
            raise NotInvertibleError("character sum degenerated to zero")
        cf.cache[key] = acc
    return cf.cache[key]


def gauss_sum_inv(cf: CycField) -> CycElem:
    """(-1)^d * prime / gauss_sum; the product law is checked exactly."""
    key = "gauss_inv"
    if key not in cf.cache:
        g = gauss_sum(cf)
        sign_p = cf.const(cf.prime if cf.d % 2 == 0 else -cf.prime)
        ginv = sign_p * g.inv()
        if g * ginv != sign_p:
            raise InvariantError("gauss_sum * gauss_sum_inv != (-1)^d * prime")
        cf.cache[key] = ginv
    return cf.cache[key]


# -- interpolation polynomials


class ZPoly:
    """Dense polynomial in the torsion variable over the torsion field."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return poly_degree(self.coeffs)

    def coeff(self, k: int):
        return self.coeffs[k]

    def eval(self, x):
        return poly_eval(self.coeffs, x)

    def __eq__(self, other):
        if not isinstance(other, ZPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else None
            b = other.coeffs[i] if i < len(other.coeffs) else None
            if a is None:
                if not b.is_zero():
                    return False
            elif b is None:
                if not a.is_zero():
                    return False
            elif not (a - b).is_zero():
                return False
        return True

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"ZPoly(degree={self.degree}, len={len(self.coeffs)})"


def interpolation_M(cf: CycField) -> ZPoly:
    """Exact interpolation through the torsion values of all residues:
    M(C_b(lambda)) = prime * chi(b), with chi(b) = b(zeta).

    The nodes C_b(lambda) are the q^d roots of C_P(Z) = Z * rho(Z), and
    C_P'(Z) = P, so every Lagrange denominator is P and
    M = sum_b chi(b) * C_P(Z) / (Z - C_b(lambda)): one Horner synthetic
    division of chi(b) * C_P(Z) per residue with chi(b) != 0, and no
    inverse.  A nonzero remainder means a node is not a root of C_P.
    """
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
    return ZPoly(out)


def M_from_gauss(cf: CycField) -> ZPoly:
    """Closed form of the prime interpolation polynomial through the Gauss sum:
    (-1)^d g_inv * sum_j Z^{q^j} * sum over a of degree j..d-1 of
    chi(a)^{-1} E_j(a).
    """
    spec = cf.spec
    ginv = gauss_sum_inv(cf)
    sign = cf.one if cf.d % 2 == 0 else -cf.one
    out = [cf.zero] * (spec.q ** (cf.d - 1) + 1)
    for j in range(cf.d):
        ej = basis_E(spec, j)
        total = cf.zero
        for a in enumerate_A(spec, cf.d):
            if a.degree < j:
                continue
            val = ej.eval_rf(RatFunc.from_poly(a))
            total = total + cf.const(val) * a.eval(cf.zeta).inv()
        out[spec.q**j] = total * ginv * sign
    return ZPoly(out)


# -- exact identities in two symbols


class FracPoly:
    """Polynomial in y whose coefficients share one denominator in x.

    Kept unreduced so large exact identities compare without gcd work;
    equality cross-multiplies.
    """

    __slots__ = ("den", "coeffs")

    def __init__(self, den: GFPoly, coeffs):
        if den.is_zero():
            raise ZeroInverseError("zero common denominator")
        self.den = den
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return poly_degree(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FracPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else None
            b = other.coeffs[i] if i < len(other.coeffs) else None
            left = (a * other.den) if a is not None else None
            right = (b * self.den) if b is not None else None
            if left is None:
                if not right.is_zero():
                    return False
            elif right is None:
                if not left.is_zero():
                    return False
            elif left != right:
                return False
        return True

    def __hash__(self):
        return hash((self.den, self.coeffs))

    def __repr__(self):
        return f"FracPoly(deg_y={self.degree}, deg_den={self.den.degree})"


def telescope_pair(spec, d: int):
    """Both sides of the degree-d telescope identity in the symbols (x, y).

    Left: sum_{j<d} l_j(x)^{-1} prod_{k<j} (y - x^{q^k}); right: the single
    term l_{d-1}(x)^{-1} prod_{1<=j<d} (y - x^{q^j}).  Returned over the
    common denominator l_{d-1}(x) so the caller can compare exactly.
    """
    if d < 1:
        raise ShapeMismatchError("telescope depth must be >= 1")
    if spec.q**d > DEG_LIMIT:
        raise SizeLimitError("telescope depth beyond the degree guard")
    one = GFPoly(spec, (spec.one,), "x")
    # suffix products l_{d-1}/l_j without division
    suffix = [one] * d
    for j in range(d - 2, -1, -1):
        f = [spec.zero] * (spec.q ** (j + 1) + 1)
        f[1] = spec.one
        f[spec.q ** (j + 1)] = -spec.one
        suffix[j] = GFPoly(spec, tuple(f), "x") * suffix[j + 1]
    lhs = [GFPoly(spec, (), "x")] * d
    prod = [one]  # prod_{k<j} (y - x^{q^k}) as y-coefficients
    for j in range(d):
        for m, c in enumerate(prod):
            lhs[m] = lhs[m] + suffix[j] * c
        if j < d - 1:
            mono = [spec.zero] * (spec.q**j + 1)
            mono[spec.q**j] = spec.one
            xq = GFPoly(spec, tuple(mono), "x")
            nxt = [GFPoly(spec, (), "x")] * (len(prod) + 1)
            for m, c in enumerate(prod):
                nxt[m + 1] = nxt[m + 1] + c
                nxt[m] = nxt[m] - xq * c
            prod = nxt
    rhs = [one]
    for j in range(1, d):
        mono = [spec.zero] * (spec.q**j + 1)
        mono[spec.q**j] = spec.one
        xq = GFPoly(spec, tuple(mono), "x")
        nxt = [GFPoly(spec, (), "x")] * (len(rhs) + 1)
        for m, c in enumerate(rhs):
            nxt[m + 1] = nxt[m + 1] + c
            nxt[m] = nxt[m] - xq * c
        rhs = nxt
    den = carlitz_dl(spec, d - 1, "x")[1]
    return FracPoly(den, lhs), FracPoly(den, rhs)


# -- the numeric embedding


def embed(x: CycElem, ctx: Completion, budget: SeriesBudget) -> RamLaurent:
    """Send the torsion generator to its exponential value in the completion
    and reduce; a ring homomorphism up to the working precision.
    """
    cf = x.cf
    if ctx.spec is not cf.spec:
        raise FieldMismatchError("completion built over a different tower")
    wp = budget.wp
    # cache on the completion, not the torsion field: the value is ctx-bound
    key = ("embed_lam", cf.prime, wp)
    if key not in ctx.cache:
        z = ctx.embed_poly(cf.prime).inv(wp + 2 * cf.d * ctx.ram + ctx.q)
        ctx.cache[key] = carlitz_e(ctx, z, budget)
    lam_num = ctx.cache[key]
    acc = ctx.zero(wp)
    for c in reversed(x.coeffs):
        acc = acc * lam_num + ctx.embed_rat(c, wp + ctx.q * ctx.ram)
    if not x.is_zero() and acc.prec < budget.prec:
        raise PrecisionExhaustedError(
            f"embedding delivered precision {acc.prec} < target {budget.prec}")
    return acc
