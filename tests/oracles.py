"""Reference constructions shared by the test modules; not part of the package."""

from carlitz.cyclotomic import action_at_lam, carlitz_poly
from carlitz.errors import InvariantError, PrecisionExhaustedError, ShapeMismatchError
from carlitz.fields import GFPoly, enumerate_A, poly_trim
from carlitz.laurent import NEG_INF, Completion, RamLaurent
from carlitz.tate import TateElem, _val_floor


def tate_poly_t(ctx: Completion, s: int, tcap: int, i: int, a: GFPoly) -> TateElem:
    """Image of a in F_q[t_i]: coefficient k of a becomes the t_i^k term."""
    terms = {}
    for k, c in enumerate(a.coeffs):
        if c.is_zero():
            continue
        e = tuple(k if j == i else 0 for j in range(s))
        terms[e] = ctx.from_field(c)
    return TateElem(ctx, s, tcap, terms)


def linpoly_coeff(f, j: int) -> GFPoly:
    """Coefficient c_j of Z^{q^j} in the additive polynomial f (zero past its end)."""
    if 0 <= j < len(f.coeffs):
        return f.coeffs[j]
    return f.spec.poly([])


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
        for e, c in x.terms.items():
            if not c.is_zero() and c.norm_exp() > c_exp - delta * sum(e):
                raise PrecisionExhaustedError(
                    f"stored coefficient at {e} violates the decay certificate")
        err = c_exp - (delta - 1) * (x.tcap + 1)
    th = ctx.theta()
    powers = {0: ctx.one()}
    out: dict = {}
    for e, c in x.terms.items():
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


def action_at_lam_direct(cf, a: GFPoly):
    """sum_j c_j * lambda^(q^j) over the action polynomial of a, monic or
    not, with each lambda^(q^j) raised afresh: the reference for
    action_at_lam."""
    acc = cf.zero
    for j, c in enumerate(carlitz_poly(cf.spec, a).coeffs):
        acc = acc + cf.lam ** (cf.spec.q**j) * c
    return acc


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
