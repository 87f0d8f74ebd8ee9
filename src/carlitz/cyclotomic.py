"""Exact torsion arithmetic for the Carlitz module.

The module action as additive polynomials, prime-torsion fields with their
Galois action, Gauss sums, interpolation polynomials, and the exact
telescope identity.  An additive polynomial sum_j c_j Z^{q^j} is the tuple
of its coefficients c_j in F_q[theta].  Coefficients of torsion-field
elements are polynomials in theta over the coefficient extension; a
torsion-field element is a tuple of such numerators over one monic
denominator, which is 1 except after a division.
Everything here is exact; the only numerics is the final embedding into the
completion, which inverts its moduli by functions.modulus_inv.
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
    GFElem,
    GFPoly,
    carlitz_dl,
    degree_guard,
    enumerate_A,
    poly_add,
    poly_eval,
    poly_mul,
    poly_pdivmod,
    poly_sub,
    poly_trim,
    power,
)
from .functions import SeriesBudget, carlitz_e, modulus_inv
from .laurent import Completion, RamLaurent

_TORSION_LIMIT = 512


def torsion_guard(q: int, d: int):
    """Refuse the torsion field of a degree-d prime once its q^d residues
    exceed _TORSION_LIMIT: the one home of that rule."""
    if q**d > _TORSION_LIMIT:
        raise SizeLimitError(
            f"torsion field of degree {d} beyond the torsion guard q^d <= {_TORSION_LIMIT}")


def carlitz_poly(spec, a: GFPoly) -> tuple:
    """The additive polynomial C_a(Z) = sum_j c_j Z^{q^j} of the module
    action of a, as the trimmed tuple (c_0, c_1, ...) in F_q[theta].

    C_theta(Z) = theta Z + Z^q, so c_j of C_{theta^(i+1)} is theta c_j +
    c_{j-1}^q of C_{theta^i}, and C_a = sum_i a_i C_{theta^i} since the
    action is F_q-linear in a.
    """
    a.subfield_coeff_indices()
    degree_guard(spec.q, a.degree)
    zero, theta = spec.poly([]), spec.poly([0, 1])
    power = [spec.poly([1])]  # C_1(Z) = Z
    out = []
    for i, c in enumerate(a.idx):
        if i:
            power = [theta * x + y.qpow(1) for x, y in zip(power + [zero], [zero] + power)]
        if c:
            out = poly_add(out, [x.scale(spec.elems[c]) for x in power], zero)
    return tuple(out)


def lin_eval(coeffs, x: GFPoly) -> GFPoly:
    """sum_j c_j x^{q^j} for the additive polynomial with coefficients coeffs."""
    acc = x.field.poly([])
    for j, c in enumerate(coeffs):
        if not c.is_zero():
            acc = acc + c * x.qpow(j)
    return acc


def basis_E(spec, j: int) -> tuple[tuple, GFPoly]:
    """(e_j, D_j): the degree-q^j interpolation basis is E_j = e_j / D_j,
    where e_j = prod over all a of degree < j of (Z - a) has coefficients
    in F_q[theta] and D_j = e_j(theta^j).  e_j is a coefficient tuple, as
    carlitz_poly's.

    Computed by the separable recursion e_j = e_{j-1}^q - v^{q-1} e_{j-1}
    with v = e_{j-1}(theta^{j-1}); the tests pin this against the literal
    product and against the module-action coefficients.
    """
    degree_guard(spec.q, j)
    zero = spec.poly([])
    e = (spec.poly([1]),)
    for i in range(1, j + 1):
        scale = power(lin_eval(e, spec.poly([0] * (i - 1) + [1])), spec.q - 1)
        e = tuple(poly_sub([zero] + [c.qpow(1) for c in e], [c * scale for c in e], zero))
    return e, carlitz_dl(spec, j)[0]


def _content(polys: list) -> GFPoly:
    """gcd of the polynomials up to a unit; stops once it is constant."""
    g = polys[0]
    for c in polys[1:]:
        if not g.degree:
            break
        g = g.gcd(c)
    return g


def bezout_mod(coeffs, rho, zero, one) -> tuple[list, GFPoly]:
    """(s, r) with s * x == r (mod rho) and r a nonzero element of F[theta],
    for x = coeffs in F[theta][Z] coprime to the monic rho.

    One fraction-free extended Euclid that tracks only the cofactor of x.
    Each step pseudo-divides, then divides the remainder and its cofactor by
    their common content, as in Brown's primitive remainder sequence: one
    scalar on both sides of r_i == s_i * x keeps the congruence and s_i
    integral.
    """
    r0, r1 = list(rho), poly_trim(coeffs)
    s0, s1 = [], [one]
    while len(r1) > 1:
        lead_pow, quot, rem = poly_pdivmod(r0, r1, zero, one)
        s2 = poly_sub([c * lead_pow for c in s0], poly_mul(quot, s1, zero), zero)
        if rem:
            g = _content(rem + s2)
            if g.degree > 0:
                rem = [c // g for c in rem]
                s2 = [c // g for c in s2]
        r0, r1, s0, s1 = r1, rem, s1, s2
    if not r1:
        raise NotInvertibleError(
            f"gcd with the modulus has degree {len(r0) - 1}; modulus not prime here")
    return s1, r1[0]


class CycField:
    """Torsion field for a monic prime: residues of Z modulo rho = C_P(Z)/Z.

    rho is monic over F[theta], F the coefficient extension that houses the
    chosen root zeta, so reducing a polynomial with coefficients in F[theta]
    needs no coefficient inverse.  It has degree q^d - 1 and stays
    irreducible after the constant extension, so bezout_mod inverts every
    nonzero residue; a failure surfaces as NotInvertibleError.
    """

    def __init__(self, spec, prime: GFPoly, zeta: GFElem):
        prime.subfield_coeff_indices()
        if not prime.is_monic() or prime.degree < 1 or not prime.is_irreducible():
            raise NotIrreducibleError("modulus prime must be monic irreducible")
        if zeta.field is not spec:
            raise FieldMismatchError("root from another tower")
        if not prime.eval(zeta).is_zero():
            raise RootMismatchError("zeta is not a root of the prime")
        torsion_guard(spec.q, prime.degree)
        self.spec = spec
        self.prime = prime
        self.zeta = zeta
        self.d = prime.degree
        self.poly_zero = spec.poly([])
        self.poly_one = spec.poly([1])
        dense = [self.poly_zero] * (spec.q**self.d + 1)
        for jj, c in enumerate(carlitz_poly(spec, prime)):
            dense[spec.q**jj] = c
        # the action polynomial has no constant term; divide by Z exactly
        self.rho = tuple(dense[1:])
        # the d + 1 nonzero terms of rho below its top, for reduce
        self.rho_support = [(k, c) for k, c in enumerate(self.rho[:-1]) if not c.is_zero()]
        self.cache = {}

    @property
    def zero(self) -> "CycElem":
        return CycElem(self, [])

    @property
    def one(self) -> "CycElem":
        return CycElem(self, [self.poly_one])

    @property
    def lam(self) -> "CycElem":
        # reduce: for q^d = 2 the modulus has degree 1 and lam is a constant
        return self.reduce([self.poly_zero, self.poly_one])

    def const(self, x) -> "CycElem":
        if isinstance(x, GFElem):
            x = self.spec.poly([x])
        return CycElem(self, [x])

    def reduce(self, coeffs, den=None) -> "CycElem":
        """coeffs / den, with coeffs reduced modulo the monic rho."""
        rem = poly_pdivmod(coeffs, self.rho, self.poly_zero, self.poly_one, self.rho_support)[2]
        return CycElem(self, rem, den)

    def __repr__(self):
        return f"CycField(prime={self.prime!r}, deg={self.d})"


class CycElem:
    """Residue num(Z) / den: numerators in F[theta] over one monic den.

    den is 1 unless a division made it otherwise; a nonconstant den shares
    no factor with all of the numerators.  That form is unique, so == and
    hash compare the tuples, and integral sums and products take no gcd.
    """

    __slots__ = ("cf", "coeffs", "den")

    def __init__(self, cf: CycField, coeffs, den: GFPoly | None = None):
        cs = poly_trim(coeffs)
        if len(cs) >= len(cf.rho):
            raise ShapeMismatchError("residue not reduced against the modulus")
        if den is None or not cs:
            den = cf.poly_one
        elif den.degree > 0:
            g = _content([den] + cs)
            if g.degree > 0:
                cs = [c // g for c in cs]
                den = den // g
        if den.idx[-1] != 1:
            inv = den.lead.inv()
            cs = [c.scale(inv) for c in cs]
            den = den.scale(inv)
        self.cf = cf
        self.coeffs = tuple(cs)
        self.den = den

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return self.den.degree == 0

    def _check(self, other):
        if self.cf is not other.cf:
            raise FieldMismatchError("elements of different torsion fields")

    def __add__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        zero = self.cf.poly_zero
        if self.den == other.den:
            return CycElem(self.cf, poly_add(self.coeffs, other.coeffs, zero), self.den)
        a = [c * other.den for c in self.coeffs]
        b = [c * self.den for c in other.coeffs]
        return CycElem(self.cf, poly_add(a, b, zero), self.den * other.den)

    def __neg__(self) -> "CycElem":
        return CycElem(self.cf, [-c for c in self.coeffs], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other) -> "CycElem":
        if isinstance(other, (GFPoly, GFElem)):
            return CycElem(self.cf, [c * other for c in self.coeffs], self.den)
        self._check(other)
        num = poly_mul(self.coeffs, other.coeffs, self.cf.poly_zero)
        return self.cf.reduce(num, self.den * other.den)

    def inv(self) -> "CycElem":
        """den * s / r for the Bezout pair s * num == r (mod rho)."""
        if self.is_zero():
            raise ZeroInverseError("inverse of zero in the torsion field")
        cf = self.cf
        s, r = bezout_mod(self.coeffs, cf.rho, cf.poly_zero, cf.poly_one)
        return cf.reduce([c * self.den for c in s], r)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n: int) -> "CycElem":
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n) if n else self.cf.one

    def __eq__(self, other):
        return (isinstance(other, CycElem) and self.cf is other.cf
                and self.coeffs == other.coeffs and self.den == other.den)

    def __hash__(self):
        return hash((self.coeffs, self.den))

    def __repr__(self):
        if not self.coeffs:
            return "CycElem(0)"
        parts = [f"({c})*L^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        tail = "" if self.is_integral() else f" / ({self.den})"
        return "CycElem(" + " + ".join(parts) + tail + ")"


def action_at_lam(cf: CycField, a: GFPoly) -> CycElem:
    """C_a(lambda), the module action of a on the torsion generator, reduced.

    The action is F_q-linear in a, so C_a(lambda) = sum_i a_i x_i with x_i =
    C_{theta^i}(lambda): x_0 = lambda and x_{i+1} = C_theta(x_i) = theta x_i
    + x_i^q, kept once per field and extended on demand.
    """
    key = ("act", a.idx)
    if key not in cf.cache:
        a.subfield_coeff_indices()
        xs = cf.cache.setdefault("theta_actions", [cf.lam])
        while len(xs) < len(a.idx):
            xs.append(xs[-1] * cf.spec.poly([0, 1]) + xs[-1] ** cf.spec.q)
        acc = cf.zero
        for x, c in zip(xs, a.idx):
            if c:
                acc = acc + x * cf.spec.elems[c]
        cf.cache[key] = acc
    return cf.cache[key]


def _monic_orbits(cf: CycField):
    """(b, chi(b), C_b(lambda)) for each monic b of degree < d: one b per
    unit orbit of the nonzero residues, none with chi(b) = 0."""
    for j in range(cf.d):
        for b in enumerate_A(cf.spec, j, monic=True):
            yield b, b.eval(cf.zeta), action_at_lam(cf, b)


def galois_sigma(a: GFPoly, x: CycElem) -> CycElem:
    """The automorphism fixing constants that moves the generator by the
    module action of a; requires a prime to the modulus.
    """
    cf = x.cf
    a.subfield_coeff_indices()
    if a.gcd(cf.prime).degree != 0:
        raise NotCoprimeError("class of a is not invertible modulo the prime")
    lam_img = action_at_lam(cf, a % cf.prime)
    acc = poly_eval([cf.const(c) for c in x.coeffs], lam_img, cf.zero)
    # the automorphism fixes F(theta), so the denominator stays
    return CycElem(cf, acc.coeffs, x.den)


def gauss_sum(cf: CycField) -> CycElem:
    """Character sum over nonzero residues: sum of chi(a)^{-1} C_a(lambda).
    A unit c leaves chi(c*b)^{-1} C_{c*b}(lambda) = chi(b)^{-1} C_b(lambda),
    so it is -sum over monic b of chi(b)^{-1} C_b(lambda), as q - 1 = -1."""
    key = "gauss"
    if key not in cf.cache:
        acc = cf.zero
        for _, chi, x in _monic_orbits(cf):
            acc = acc - x * chi.inv()
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


def interpolation_M(cf: CycField) -> list:
    """Exact interpolation through the torsion values of all residues:
    M(C_b(lambda)) = prime * chi(b), with chi(b) = b(zeta).  M is the
    trimmed coefficient list, low degree first.

    The nodes C_b(lambda) are the q^d roots of C_P(Z) = Z * rho(Z), and
    C_P'(Z) = P, so every Lagrange denominator is P and
    M = sum_b chi(b) * C_P(Z) / (Z - C_b(lambda)).  The sum runs over one
    unit orbit at a time.  For a unit c and x = C_b(lambda),
    chi(c*b) = c * chi(b) and C_{c*b}(lambda) = c * x, and

        sum_c c / (Z - c*x) = -x^(q-2) / (Z^(q-1) - x^(q-1)):

    expanded in 1/Z, the left side is sum_n x^n / Z^(n+1) * sum_c c^(n+1),
    and sum_c c^(n+1) is -1 when q - 1 divides n + 1 and 0 otherwise; the
    surviving n = q - 2 + (q - 1)i sum to the right side.  rho(Z) =
    sum_j c_j Z^(q^j - 1) is a polynomial R(W) in W = Z^(q-1), and
    R(x^(q-1)) = rho(x) = 0 for a nonzero node x, so

        M = Z * sum over monic b of -chi(b) * x^(q-2) * R(W) / (W - x^(q-1)):

    one exact synthetic division of length (q^d - 1)/(q - 1) per monic b,
    and no inverse.  A nonzero remainder means a node is not a root of C_P;
    a term of rho off the multiples of q - 1 means rho is no polynomial in
    W.  At q = 2, W = Z, R = rho and x^(q-2) = 1.
    """
    q = cf.spec.q
    R = cf.rho
    if q > 2:
        if any(not c.is_zero() for k, c in enumerate(R) if k % (q - 1)):
            raise InvariantError("rho has a term off the multiples of q - 1")
        R = R[:: q - 1]
    out = [cf.zero] * (len(R) - 1)  # W-coefficients of the summed quotients
    for b, chi, x in _monic_orbits(cf):
        if q > 2:
            xp = x ** (q - 2)
            scale, y = xp * -chi, xp * x
        else:
            scale, y = cf.const(-chi), x
        acc = scale * R[-1]
        for k in range(len(R) - 2, -1, -1):
            out[k] = out[k] + acc
            acc = y * acc
            if not R[k].is_zero():
                acc = acc + scale * R[k]
        if not acc.is_zero():
            raise InvariantError(f"torsion value of {b!r} is not a root of C_P")
    M = [cf.zero] * ((q - 1) * (len(out) - 1) + 2)
    M[1 :: q - 1] = out
    return poly_trim(M)


def torsion_moment(cf: CycField, k: int) -> CycElem:
    """sum over nonzero residues b of C_b(lambda)^k * chi(b), over monic b.

    The term of c*b, for a unit c, is c^(k+1) times the term of b, and
    sum_c c^(k+1) is -1 when q - 1 divides k + 1 and 0 otherwise.  So the
    sum is -sum over monic b of C_b(lambda)^k * chi(b) in the first case
    and 0 in the second.
    """
    acc = cf.zero
    if (k + 1) % (cf.spec.q - 1):
        return acc
    for _, chi, x in _monic_orbits(cf):
        acc = acc + x**k * chi
    return -acc


def M_from_gauss(cf: CycField) -> list:
    """Closed form of the prime interpolation polynomial through the Gauss sum:
    (-1)^d g_inv * sum_j Z^{q^j} * sum over a of degree j..d-1 of
    chi(a)^{-1} E_j(a), as interpolation_M's trimmed coefficient list.
    """
    spec = cf.spec
    ginv = gauss_sum_inv(cf)
    sign = cf.one if cf.d % 2 == 0 else -cf.one
    out = [cf.zero] * (spec.q ** (cf.d - 1) + 1)
    for j in range(cf.d):
        ej, dj = basis_E(spec, j)
        total = cf.zero
        for a in enumerate_A(spec, cf.d):
            if a.degree < j:
                continue
            val, rem = divmod(lin_eval(ej, a), dj)
            if not rem.is_zero():
                raise InvariantError(f"E_{j}({a!r}) is not a polynomial")
            total = total + cf.const(val) * a.eval(cf.zeta).inv()
        out[spec.q**j] = total * ginv * sign
    return poly_trim(out)


# -- exact identities in two symbols


def telescope_pair(spec, d: int):
    """Both sides of the degree-d telescope identity in the symbols (x, y).

    Left: sum_{j<d} l_j(x)^{-1} prod_{k<j} (y - x^{q^k}); right: the single
    term l_{d-1}(x)^{-1} prod_{1<=j<d} (y - x^{q^j}).  Both sides share the
    denominator l_{d-1}(x), so the result is (den, lhs, rhs) with lhs and rhs
    tuples of numerator y-coefficients in F_q[x]: the identity holds exactly
    when lhs == rhs.
    """
    if d < 1:
        raise ShapeMismatchError("telescope depth must be >= 1")
    degree_guard(spec.q, d)
    one = GFPoly(spec, (spec.one,), "x")
    zero = GFPoly(spec, (), "x")

    def xq(j):
        return GFPoly(spec, (spec.zero,) * spec.q**j + (spec.one,), "x")

    # suffix products l_{d-1}/l_j without division
    suffix = [one] * d
    for j in range(d - 2, -1, -1):
        f = spec.poly([0, 1] + [0] * (spec.q ** (j + 1) - 2) + [spec.p - 1], "x")
        suffix[j] = f * suffix[j + 1]
    lhs = []
    prod = [one]  # prod_{k<j} (y - x^{q^k}) as y-coefficients
    for j in range(d):
        lhs = poly_add(lhs, [suffix[j] * c for c in prod], zero)
        if j < d - 1:
            prod = poly_mul(prod, [-xq(j), one], zero)
    rhs = [one]
    for j in range(1, d):
        rhs = poly_mul(rhs, [-xq(j), one], zero)
    den = carlitz_dl(spec, d - 1, "x")[1]
    return den, tuple(lhs), tuple(rhs)


# -- the numeric embedding


def embed(x: CycElem, ctx: Completion, budget: SeriesBudget) -> RamLaurent:
    """Send the torsion generator to its exponential value in the completion
    and reduce; a ring homomorphism up to the working precision.
    """
    cf = x.cf
    if ctx.spec is not cf.spec:
        raise FieldMismatchError("completion built over a different tower")
    wp = budget.wp
    # cache on the completion, not the torsion field: the value is ctx-bound;
    # the truncation index is cached with it and recorded on every call
    key = ("embed_lam", cf.prime, wp)
    if key not in ctx.cache:
        first = SeriesBudget(budget.prec, budget.pad)
        lam = carlitz_e(ctx, modulus_inv(ctx, cf.prime, wp), first)
        ctx.cache[key] = lam, first.n_terms["carlitz_exp"]
    lam_num, budget.n_terms["carlitz_exp"] = ctx.cache[key]
    acc = ctx.zero(wp)
    for c in reversed(x.coeffs):
        acc = acc * lam_num + ctx.embed_poly(c)
    if not x.is_integral():
        acc = acc * modulus_inv(ctx, x.den, wp)
    if not x.is_zero() and acc.prec < budget.prec:
        raise PrecisionExhaustedError(
            f"embedding delivered precision {acc.prec} < target {budget.prec}")
    return acc
