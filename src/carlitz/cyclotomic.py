"""Exact torsion arithmetic for the Carlitz module.

Linearized polynomials over F_q[theta], prime-torsion fields with their
Galois action, Gauss sums, interpolation polynomials, and the exact
telescope identity.  Coefficients are polynomials in theta over the
coefficient extension; a torsion-field element is a tuple of such
numerators over one monic denominator, which is 1 except after a division.
Everything here is exact; the only numerics is the final embedding into the
completion.
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
    poly_mul,
    poly_pdivmod,
    poly_sub,
    poly_trim,
)
from .functions import SeriesBudget, carlitz_e
from .laurent import Completion, RamLaurent

_TORSION_LIMIT = 512


def torsion_guard(q: int, d: int):
    """Refuse the torsion field of a degree-d prime once its q^d residues
    exceed _TORSION_LIMIT: the one home of that rule."""
    if q**d > _TORSION_LIMIT:
        raise SizeLimitError(
            f"torsion field of degree {d} beyond the torsion guard q^d <= {_TORSION_LIMIT}")


class LinPoly:
    """Additive polynomial sum_j c_j Z^{q^j} with coefficients in F_q[theta].

    The representation is the coefficient list indexed by j, so additivity is
    structural; composition is the ring multiplication.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.coeffs = tuple(poly_trim(coeffs))

    def __add__(self, other: "LinPoly") -> "LinPoly":
        return LinPoly(self.spec, poly_add(self.coeffs, other.coeffs, self.spec.poly([])))

    def __neg__(self) -> "LinPoly":
        return LinPoly(self.spec, [-c for c in self.coeffs])

    def __sub__(self, other: "LinPoly") -> "LinPoly":
        return self + (-other)

    def scale(self, c) -> "LinPoly":
        return LinPoly(self.spec, [f * c for f in self.coeffs])

    def qtwist(self, k: int = 1) -> "LinPoly":
        """Composition with Z^{q^k} on the left: coefficients pushed up."""
        shifted = [self.spec.poly([])] * k + [c.qpow(k) for c in self.coeffs]
        return LinPoly(self.spec, shifted)

    def compose(self, other: "LinPoly") -> "LinPoly":
        out = LinPoly(self.spec, [])
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            piece = [self.spec.poly([])] * j + [g.qpow(j) for g in other.coeffs]
            out = out + LinPoly(self.spec, piece).scale(c)
        return out

    def eval(self, x: GFPoly) -> GFPoly:
        acc = self.spec.poly([])
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                acc = acc + c * x.qpow(j)
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
    degree_guard(spec.q, a.degree)
    c_theta = LinPoly(spec, [spec.poly([0, 1]), spec.poly([1])])
    out = LinPoly(spec, [])
    power = LinPoly(spec, [spec.poly([1])])  # identity Z
    for i, c in enumerate(a.coeffs):
        if i:
            power = c_theta.compose(power)
        if not c.is_zero():
            out = out + power.scale(c)
    return out


def basis_E(spec, j: int) -> tuple[LinPoly, GFPoly]:
    """(e_j, D_j): the degree-q^j interpolation basis is E_j = e_j / D_j,
    where e_j = prod over all a of degree < j of (Z - a) has coefficients
    in F_q[theta] and D_j = e_j(theta^j).

    Computed by the separable recursion e_j = e_{j-1}^q - v^{q-1} e_{j-1}
    with v = e_{j-1}(theta^{j-1}); the tests pin this against the literal
    product and against the module-action coefficients.
    """
    degree_guard(spec.q, j)
    e = LinPoly(spec, [spec.poly([1])])
    for i in range(1, j + 1):
        v = e.eval(spec.poly([0] * (i - 1) + [1]))
        scale = v
        for _ in range(spec.q - 2):
            scale = scale * v
        e = e.qtwist(1) - e.scale(scale)
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
        cp = carlitz_poly(spec, prime)
        dense = [self.poly_zero] * (spec.q**self.d + 1)
        for jj, c in enumerate(cp.coeffs):
            dense[spec.q**jj] = c
        # the action polynomial has no constant term; divide by Z exactly
        self.rho = tuple(dense[1:])
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
        rem = poly_pdivmod(coeffs, self.rho, self.poly_zero, self.poly_one)[2]
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
        if den.lead != cf.spec.one:
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


def _ladder(cf: CycField, n: int) -> list:
    """[lambda^(q^j) for j < n], kept once per field and extended on demand."""
    ladder = cf.cache.setdefault("ladder", [cf.lam])
    while len(ladder) < n:
        x = ladder[-1]
        for _ in range(cf.spec.e):
            x = x ** cf.spec.p
        ladder.append(x)
    return ladder


def action_at_lam(cf: CycField, a: GFPoly) -> CycElem:
    """The module action of a applied to the torsion generator, reduced.

    The action is F_q-linear, so a non-monic a is its leading coefficient
    times the action of the monic a / lead: only a monic a (or zero) builds
    its action polynomial.
    """
    key = ("act", a.coeffs)
    if key not in cf.cache:
        a.subfield_coeff_indices()
        if not a.is_zero() and not a.is_monic():
            cf.cache[key] = action_at_lam(cf, a.scale(a.lead.inv())) * a.lead
        else:
            cp = carlitz_poly(cf.spec, a)
            acc = cf.zero
            for x, c in zip(_ladder(cf, len(cp.coeffs)), cp.coeffs):
                if not c.is_zero():
                    acc = acc + x * c
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
    acc = cf.zero
    for c in reversed(x.coeffs):
        acc = acc * lam_img + cf.const(c)
    # the automorphism fixes F(theta), so the denominator stays
    return CycElem(cf, acc.coeffs, x.den)


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
            val, rem = divmod(ej.eval(a), dj)
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

    def times_y_minus_xq(prod, j):
        """prod * (y - x^{q^j}), both as y-coefficients in F_q[x]."""
        xq = GFPoly(spec, (spec.zero,) * spec.q**j + (spec.one,), "x")
        nxt = [zero] * (len(prod) + 1)
        for m, c in enumerate(prod):
            nxt[m + 1] = nxt[m + 1] + c
            nxt[m] = nxt[m] - xq * c
        return nxt

    # suffix products l_{d-1}/l_j without division
    suffix = [one] * d
    for j in range(d - 2, -1, -1):
        f = [spec.zero] * (spec.q ** (j + 1) + 1)
        f[1] = spec.one
        f[spec.q ** (j + 1)] = -spec.one
        suffix[j] = GFPoly(spec, tuple(f), "x") * suffix[j + 1]
    lhs = [zero] * d
    prod = [one]  # prod_{k<j} (y - x^{q^k}) as y-coefficients
    for j in range(d):
        for m, c in enumerate(prod):
            lhs[m] = lhs[m] + suffix[j] * c
        if j < d - 1:
            prod = times_y_minus_xq(prod, j)
    rhs = [one]
    for j in range(1, d):
        rhs = times_y_minus_xq(rhs, j)
    den = carlitz_dl(spec, d - 1, "x")[1]
    return den, tuple(lhs), tuple(rhs)


# -- the numeric embedding


def modulus_inv(ctx: Completion, m: GFPoly, wp: int) -> RamLaurent:
    """1/m for a monic m in F_q[theta], embedded in the completion.

    The one precision rule for inverting an embedded modulus: the inverse
    keeps wp + 2 * deg(m) * ram + q terms.
    """
    return ctx.embed_poly(m).inv(wp + 2 * m.degree * ctx.ram + ctx.q)


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
