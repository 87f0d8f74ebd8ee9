"""Exact torsion-field layer: module action, basis polynomials, Gauss sums,
interpolation routes, and the two-variable telescope identities."""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlitz import cyclotomic, verify
from carlitz.cyclotomic import (
    CycElem,
    CycField,
    M_from_gauss,
    action_at_lam,
    basis_E,
    bezout_mod,
    carlitz_poly,
    embed,
    galois_sigma,
    gauss_sum,
    gauss_sum_inv,
    interpolation_M,
    lin_eval,
    telescope_pair,
    torsion_moment,
)
from carlitz.errors import (
    FieldMismatchError,
    InvariantError,
    NotCoprimeError,
    NotIrreducibleError,
    RootMismatchError,
    ShapeMismatchError,
    SizeLimitError,
    ZeroInverseError,
)
from carlitz.fields import (
    GFPoly,
    carlitz_dl,
    enumerate_A,
    make_field,
    poly_degree,
    poly_eval,
    poly_mul,
    poly_trim,
    roots_in_ext,
)
from carlitz.functions import carlitz_e, default_budget
from carlitz.laurent import Completion

from oracles import (
    action_at_lam_direct,
    frobenius,
    interpolation_M_per_residue,
    lin_add,
    lin_compose,
    linpoly_coeff,
    moment_per_residue,
)


@functools.lru_cache(maxsize=None)
def _tf(p, e, d, coeffs, root_pos=0):
    spec = make_field(p, e, d)
    prime = spec.poly(list(coeffs))
    zeta = roots_in_ext(prime, spec)[root_pos]
    return CycField(spec, prime, zeta)


def _generator(spec):
    """First element whose Frobenius orbit has full length."""
    for x in spec.elements():
        if len({frobenius(x, k).index for k in range(spec.d)}) == spec.d:
            return x
    raise AssertionError("no generator found")


# -- the module action as an additive polynomial


def test_action_of_theta():
    for p in (2, 3):
        spec = make_field(p, 1, 1)
        c = carlitz_poly(spec, spec.poly([0, 1]))
        assert len(c) == 2
        assert linpoly_coeff(spec, c, 0) == spec.poly([0, 1])
        assert linpoly_coeff(spec, c, 1) == spec.poly([1])


def test_action_theta_squared_closed_form():
    # theta^2 acts by theta^2 Z + (theta^q + theta) Z^q + Z^{q^2}
    for p in (2, 3):
        spec = make_field(p, 1, 1)
        q = spec.q
        c2 = carlitz_poly(spec, spec.poly([0, 0, 1]))
        assert len(c2) == 3
        assert linpoly_coeff(spec, c2, 0) == spec.poly([0, 0, 1])
        mid = [0] * (q + 1)
        mid[1] = 1
        mid[q] = 1
        assert linpoly_coeff(spec, c2, 1) == spec.poly(mid)
        assert linpoly_coeff(spec, c2, 2) == spec.poly([1])
        ct = carlitz_poly(spec, spec.poly([0, 1]))
        assert c2 == lin_compose(spec, ct, ct)


def test_action_ring_hom_exhaustive():
    spec = make_field(2, 1, 1)
    elems = enumerate_A(spec, 3)
    acts = {a.coeffs: carlitz_poly(spec, a) for a in elems}
    for a in elems:
        for b in elems:
            assert carlitz_poly(spec, a + b) == lin_add(spec, acts[a.coeffs], acts[b.coeffs])
            assert carlitz_poly(spec, a * b) == lin_compose(spec, acts[a.coeffs], acts[b.coeffs])


def test_action_ring_hom_random():
    spec = make_field(3, 1, 1)
    rng = random.Random(11)
    consts = spec.elems[: spec.q]
    for _ in range(6):
        a = spec.poly([rng.choice(consts) for _ in range(4)])
        b = spec.poly([rng.choice(consts) for _ in range(4)])
        assert carlitz_poly(spec, a + b) == lin_add(spec, carlitz_poly(spec, a),
                                                    carlitz_poly(spec, b))
        assert carlitz_poly(spec, a * b) == lin_compose(spec, carlitz_poly(spec, a),
                                                        carlitz_poly(spec, b))


def test_action_size_guard():
    spec = make_field(2, 1, 1)
    with pytest.raises(SizeLimitError):
        carlitz_poly(spec, spec.poly([0] * 13 + [1]))


def test_basis_small_closed_forms():
    for p in (2, 3):
        spec = make_field(p, 1, 1)
        e0, d0 = basis_E(spec, 0)
        assert len(e0) == 1 and linpoly_coeff(spec, e0, 0) == spec.poly([1])
        assert d0 == spec.poly([1])
        # E_1 = (Z^q - Z) / D_1
        e1, d1 = basis_E(spec, 1)
        assert d1 == carlitz_dl(spec, 1)[0]
        assert linpoly_coeff(spec, e1, 0) == -spec.poly([1])
        assert linpoly_coeff(spec, e1, 1) == spec.poly([1])


@pytest.mark.parametrize("p,j", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_basis_matches_literal_product(p, j):
    # prod over all a of degree < j of (Z - a) is e_j, and E_j = e_j / d_j
    spec = make_field(p, 1, 1)
    dense = [spec.poly([1])]
    for a in enumerate_A(spec, j):
        nxt = [spec.poly([])] * (len(dense) + 1)
        for k, c in enumerate(dense):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - a * c
        dense = nxt
    ej, dj = basis_E(spec, j)
    assert dj == carlitz_dl(spec, j)[0]
    for k, scaled in enumerate(dense):
        expo = None
        qq = 1
        for i in range(j + 1):
            if qq == k:
                expo = i
            qq *= spec.q
        if expo is None:
            assert scaled.is_zero()
        else:
            assert scaled == linpoly_coeff(spec, ej, expo)


def test_action_coefficients_through_basis():
    # C_a(Z) = sum_j E_j(a) Z^{q^j}, exhaustively over small degrees
    for p, cap in ((2, 4), (3, 3)):
        spec = make_field(p, 1, 1)
        es = [basis_E(spec, j) for j in range(cap)]
        for a in enumerate_A(spec, cap):
            quots = [divmod(lin_eval(ej, a), dj) for ej, dj in es]
            assert all(r.is_zero() for _, r in quots)
            expect = tuple(poly_trim(v for v, _ in quots))
            assert carlitz_poly(spec, a) == expect


def test_basis_size_guard():
    with pytest.raises(SizeLimitError):
        basis_E(make_field(2, 1, 1), 13)


# -- torsion fields


def test_torsion_field_validations():
    spec = make_field(3, 1, 2)
    zeta = roots_in_ext(spec.poly([1, 0, 1]), spec)[0]
    with pytest.raises(NotIrreducibleError):
        CycField(spec, spec.poly([1, 0, 2]), zeta)  # not monic
    with pytest.raises(NotIrreducibleError):
        CycField(spec, spec.poly([1, 2, 1]), zeta)  # (theta+1)^2
    with pytest.raises(NotIrreducibleError):
        CycField(spec, spec.poly([1]), zeta)
    spec2 = make_field(2, 1, 2)
    prime2 = spec2.poly([1, 1, 1])
    other = make_field(2, 1, 3)
    with pytest.raises(FieldMismatchError):
        CycField(spec2, prime2, other.one)
    with pytest.raises(RootMismatchError):
        CycField(spec2, prime2, spec2.one)


def test_torsion_field_size_guard():
    spec = make_field(3, 1, 6)
    gen = _generator(spec)
    mp = spec.poly([spec.one])
    for k in range(6):
        mp = mp * spec.poly([spec.zero - frobenius(gen, k), spec.one])
    assert mp.is_monic() and mp.is_irreducible()
    with pytest.raises(SizeLimitError):
        CycField(spec, mp, gen)


def test_modulus_shape_and_separability():
    for args in ((2, 1, 2, (1, 1, 1)), (3, 1, 2, (1, 0, 1)), (2, 1, 3, (1, 1, 0, 1))):
        cf = _tf(*args)
        spec = cf.spec
        assert len(cf.rho) == spec.q**cf.d
        assert cf.rho[0] == cf.prime
        assert cf.rho[-1] == spec.poly([1])
        deriv = []
        for i in range(1, len(cf.rho)):
            c = spec.zero
            for _ in range(i % spec.p):
                c = c + spec.one
            deriv.append(cf.rho[i] * c)
        # gcd(rho, rho') = 1: the Euclid ends in a nonzero constant in Z
        _, r = bezout_mod(deriv, cf.rho, cf.poly_zero, cf.poly_one)
        assert not r.is_zero()


def test_generator_is_killed_by_prime():
    for args in ((2, 1, 1, (0, 1)), (2, 1, 2, (1, 1, 1)), (3, 1, 2, (1, 0, 1))):
        cf = _tf(*args)
        assert action_at_lam(cf, cf.prime).is_zero()


def test_torsion_vanishing_oracle():
    # the action of a kills the generator exactly when the prime divides a
    for args in ((2, 1, 2, (1, 1, 1)), (3, 1, 2, (1, 0, 1))):
        cf = _tf(*args)
        for a in enumerate_A(cf.spec, 3):
            assert action_at_lam(cf, a).is_zero() == (a % cf.prime).is_zero()


def test_element_arithmetic_basics():
    cf = _tf(2, 1, 2, (1, 1, 1))
    x = cf.lam + cf.one
    y = cf.lam * cf.lam + cf.const(cf.spec.poly([0, 1]))
    assert x * y == y * x
    assert (x + y) * (x + y) == x * x + y * y  # char 2 square
    assert x * x.inv() == cf.one
    assert (x / y) * y == x
    assert x**5 == x * x * x * x * x
    assert x**0 == cf.one
    assert x ** (-2) == (x.inv()) * (x.inv())
    with pytest.raises(ZeroInverseError):
        cf.zero.inv()
    other = _tf(3, 1, 2, (1, 0, 1))
    with pytest.raises(FieldMismatchError):
        x + other.one
    with pytest.raises(ShapeMismatchError):
        CycElem(cf, [cf.poly_one] * len(cf.rho))


_TOWERS = {(2, 1, 2): (1, 1, 1), (3, 1, 2): (1, 0, 1), (2, 2, 2): (2, 1, 1),
           (2, 1, 3): (1, 1, 0, 1)}
_theta_polys = st.lists(st.integers(0, 63), max_size=3)


@st.composite
def _elem_pairs(draw):
    """(cf, x, y): two nonzero elements of a small torsion field, each with
    numerators of theta-degree < 3 and a denominator 1 or monic of degree 1-2."""
    tower = draw(st.sampled_from(sorted(_TOWERS)))
    cf = _tf(*tower, _TOWERS[tower])
    spec = cf.spec

    def poly(idx):
        return spec.poly([spec.from_index(i) for i in idx])

    def elem():
        nums = draw(st.lists(_theta_polys, min_size=1, max_size=len(cf.rho) - 1))
        den = draw(st.one_of(st.just([]), st.lists(st.integers(0, 63), min_size=1, max_size=2)))
        x = CycElem(cf, [poly(c) for c in nums], poly(den + [1]))
        return x if not x.is_zero() else cf.lam

    return cf, elem(), elem()


def _assert_canonical(x):
    cf = x.cf
    assert x.den.is_monic()
    if x.is_zero() or x.den.degree == 0:
        assert x.den == cf.poly_one
        return
    g = x.den
    for c in x.coeffs:
        g = g.gcd(c)
    assert g.degree == 0


@settings(max_examples=60, deadline=None)
@given(_elem_pairs())
def test_fraction_free_field_laws(pair):
    # inverse, division and canonical form of numerators over one denominator
    cf, x, y = pair
    for z in (x, y):
        _assert_canonical(z)
    xi = x.inv()
    _assert_canonical(xi)
    assert x * xi == cf.one
    assert (x / y) * y == x
    back = (x * y) / y
    assert back == x and hash(back) == hash(x)
    assert (x + y) - y == x
    assert (x + y) * y == x * y + y * y
    for z in (x + y, x - y, x * y, x / y):
        _assert_canonical(z)
    # integral inputs give integral sums and products with den exactly 1
    xn = CycElem(cf, x.coeffs)
    yn = CycElem(cf, y.coeffs)
    for z in (xn + yn, xn * yn, -xn):
        assert z.den == cf.poly_one and z.is_integral()
    assert x * y * (x.den * y.den) == xn * yn


@settings(max_examples=60, deadline=None)
@given(_elem_pairs())
def test_fraction_free_bezout_relation(pair):
    # s * x == r (mod rho) with r in F[theta], checked against the defining
    # product in the torsion field
    cf, x, _ = pair
    s, r = bezout_mod(x.coeffs, cf.rho, cf.poly_zero, cf.poly_one)
    assert not r.is_zero()
    assert cf.reduce(poly_mul(s, list(x.coeffs), cf.poly_zero)) == cf.const(r)
    # the content removal leaves s / r in lowest terms
    g = r
    for c in s:
        g = g.gcd(c)
    assert g.degree == 0


def test_fraction_free_inverse_of_a_constant():
    # 1 / (theta - zeta) keeps its denominator; times the prime it is integral
    cf = _tf(3, 1, 2, (1, 0, 1))
    spec = cf.spec
    tm = spec.poly([spec.zero - cf.zeta, spec.one])
    inv = cf.const(tm).inv()
    assert inv.coeffs == (cf.poly_one,) and inv.den == tm
    assert not inv.is_integral()
    assert inv * cf.const(cf.prime) == cf.const(cf.prime // tm)
    with pytest.raises(ZeroInverseError):
        cf.zero.inv()


def test_gauss_product_reports_non_integral(monkeypatch):
    # a partner sum with a denominator must fail the integrality part
    real = cyclotomic.gauss_sum_inv

    def with_den(cf):
        x = real(cf)
        bent = CycElem(cf, x.coeffs, cf.spec.poly([1, 1]))
        assert bent.den != cf.poly_one
        return bent

    monkeypatch.setattr(verify, "gauss_sum_inv", with_den)
    rep = verify.run_check(verify.CheckConfig(check="gauss-product", p=2, prime=(1, 1, 1)))
    assert rep.status == "fail"
    assert all("integral=False" in smp.detail for smp in rep.samples)
    assert all(smp.status == "fail" for smp in rep.samples)


def test_galois_composition():
    cf = _tf(2, 1, 2, (1, 1, 1))
    spec = cf.spec
    units = [a for a in enumerate_A(spec, 2) if not a.is_zero()]
    x = cf.lam + cf.const(spec.poly([0, 1]))
    assert galois_sigma(spec.poly([1]), x) == x
    for a in units:
        for b in units:
            lhs = galois_sigma(a, galois_sigma(b, x))
            rhs = galois_sigma((a * b) % cf.prime, x)
            assert lhs == rhs
    y = cf.lam * cf.lam
    a = units[-1]
    assert galois_sigma(a, x * y) == galois_sigma(a, x) * galois_sigma(a, y)
    assert galois_sigma(a, x + y) == galois_sigma(a, x) + galois_sigma(a, y)
    # sigma fixes F(theta), so a denominator passes through
    den = cf.const(spec.poly([1, 1]))
    w = x / den
    assert not w.is_integral()
    assert galois_sigma(a, w) * den == galois_sigma(a, x)
    with pytest.raises(NotCoprimeError):
        galois_sigma(cf.prime, x)
    with pytest.raises(NotCoprimeError):
        galois_sigma(cf.prime * spec.poly([0, 1]), x)


def test_galois_moves_generator_by_action():
    cf = _tf(3, 1, 2, (1, 0, 1))
    for a in enumerate_A(cf.spec, 2):
        if (a % cf.prime).is_zero():
            continue
        assert galois_sigma(a, cf.lam) == action_at_lam(cf, a)


# -- Gauss sums


def test_gauss_eigenvalue():
    # sigma_a applied to the character sum multiplies it by a at the root
    for args in ((2, 1, 2, (1, 1, 1)), (2, 1, 2, (1, 1, 1), 1), (3, 1, 2, (1, 0, 1))):
        cf = _tf(*args)
        g = gauss_sum(cf)
        for a in enumerate_A(cf.spec, cf.d):
            if (a % cf.prime).is_zero():
                continue
            assert galois_sigma(a, g) == g * a.eval(cf.zeta)


def test_gauss_at_degree_one_prime():
    # for the prime theta itself the character sum collapses to -lam
    for p in (2, 3):
        cf = _tf(p, 1, 1, (0, 1))
        assert gauss_sum(cf) == -cf.lam


def test_gauss_product_law():
    # the partner sum (-1)^d prime / g is integral: both factors have
    # denominator 1, and their product is exactly (-1)^d prime
    for args in ((2, 1, 1, (0, 1)), (3, 1, 1, (0, 1)), (2, 1, 2, (1, 1, 1)),
                 (3, 1, 2, (1, 0, 1)), (2, 1, 3, (1, 1, 0, 1))):
        cf = _tf(*args)
        g = gauss_sum(cf)
        ginv = gauss_sum_inv(cf)
        sign_p = cf.const(cf.prime if cf.d % 2 == 0 else -cf.prime)
        assert g * ginv == sign_p
        assert g.den == cf.poly_one
        assert ginv.den == cf.poly_one


def test_first_moment_is_partner_only_at_low_weight():
    # the raw inverse-character sum matches the partner exactly when the
    # first non-vanishing moment sits at weight one (q^{d-1}(q-1) = 2)
    matches = {}
    for args in ((2, 1, 2, (1, 1, 1)), (3, 1, 2, (1, 0, 1))):
        cf = _tf(*args)
        direct = cf.zero
        for a in enumerate_A(cf.spec, cf.d):
            if a.is_zero():
                continue
            direct = direct + action_at_lam(cf, a) * a.eval(cf.zeta)
        matches[args] = direct == gauss_sum_inv(cf)
    assert matches[(2, 1, 2, (1, 1, 1))] is True
    assert matches[(3, 1, 2, (1, 0, 1))] is False


def test_moment_sums_vanish_below_threshold():
    # sum over residues of (torsion value)^k char(b) is 0 for k <= k0 - 2
    for args, k0 in (((2, 1, 2, (1, 1, 1)), 2), ((3, 1, 2, (1, 0, 1)), 6)):
        cf = _tf(*args)
        moments = []
        for k in range(k0):
            tot = cf.zero
            for b in enumerate_A(cf.spec, cf.d):
                pw = cf.one if k == 0 else action_at_lam(cf, b) ** k
                tot = tot + pw * b.eval(cf.zeta)
            moments.append(tot)
        for k in range(k0 - 1):
            assert moments[k].is_zero()
        assert not moments[k0 - 1].is_zero()


# -- interpolation polynomials


class _DuplicateNodes(Exception):
    """Two interpolation nodes of the Lagrange reference coincide."""


def _lagrange(nodes, values, one, zero, inv=lambda x: x.inv()):
    """Generic Lagrange interpolation, one inverse per node (through inv):
    the reference for interpolation_M."""
    n = len(nodes)
    for i in range(n):
        for k in range(i + 1, n):
            if (nodes[i] - nodes[k]).is_zero():
                raise _DuplicateNodes(f"interpolation nodes {i} and {k} coincide")
    out = [zero] * n
    for i in range(n):
        num = [one]
        denom = None
        for k in range(n):
            if k == i:
                continue
            num = poly_mul(num, [-nodes[k], one], zero)
            df = nodes[i] - nodes[k]
            denom = df if denom is None else denom * df
        f = values[i] * inv(denom) if denom is not None else values[i]
        for k, c in enumerate(num):
            out[k] = out[k] + c * f
    return out


def _lagrange_M(cf):
    bs = enumerate_A(cf.spec, cf.d)
    nodes = [action_at_lam(cf, b) for b in bs]
    values = [cf.const(cf.prime) * b.eval(cf.zeta) for b in bs]
    return _lagrange(nodes, values, cf.one, cf.zero)


def test_lagrange_rejects_duplicate_nodes():
    cf = _tf(2, 1, 2, (1, 1, 1))
    with pytest.raises(_DuplicateNodes):
        _lagrange([cf.one, cf.one], [cf.zero, cf.lam], cf.one, cf.zero)


@pytest.mark.parametrize(
    "args", [(2, 1, 2, (1, 1, 1)), (3, 1, 2, (1, 0, 1)), (2, 1, 3, (1, 1, 0, 1)),
             (2, 2, 2, (2, 1, 1))]
)
def test_differential_interpolation_matches_lagrange(args):
    # the synthetic-division sum gives the Lagrange coefficients, one for one
    cf = _tf(*args)
    M = interpolation_M(cf)
    assert M == poly_trim(_lagrange_M(cf))
    assert len(M) == cf.spec.q ** (cf.d - 1) + 1


def test_interpolation_node_property():
    cf = _tf(2, 1, 2, (1, 1, 1))
    M = interpolation_M(cf)
    pc = cf.const(cf.prime)
    for b in enumerate_A(cf.spec, cf.d):
        assert poly_eval(M, action_at_lam(cf, b)) == pc * b.eval(cf.zeta)


def test_interpolation_uniqueness_negative():
    # perturbing one coefficient must break at least one node
    cf = _tf(2, 1, 2, (1, 1, 1))
    M = interpolation_M(cf)
    bad = list(M)
    bad[1] = bad[1] + cf.one
    pc = cf.const(cf.prime)
    broken = sum(
        1
        for b in enumerate_A(cf.spec, cf.d)
        if poly_eval(bad, action_at_lam(cf, b)) != pc * b.eval(cf.zeta)
    )
    assert broken > 0


@pytest.mark.parametrize(
    "args", [(2, 1, 1, (0, 1)), (2, 1, 2, (1, 1, 1)), (3, 1, 1, (0, 1)),
             (3, 1, 2, (1, 0, 1)), (2, 1, 3, (1, 1, 0, 1))]
)
def test_interpolation_routes_agree(args):
    cf = _tf(*args)
    M1 = interpolation_M(cf)
    M2 = M_from_gauss(cf)
    assert M1 == M2
    # only exponents of the form q^j can carry mass
    qpows = set()
    k = 1
    while k <= cf.spec.q ** (cf.d - 1):
        qpows.add(k)
        k *= cf.spec.q
    for i, c in enumerate(M2):
        if i not in qpows:
            assert c.is_zero()


@pytest.mark.parametrize(
    "args", [(2, 1, 1, (0, 1)), (2, 1, 2, (1, 1, 1)), (3, 1, 1, (0, 1)),
             (3, 1, 2, (1, 0, 1))]
)
def test_interpolation_extreme_coefficients(args):
    cf = _tf(*args)
    spec, d, q = cf.spec, cf.d, cf.spec.q
    M = interpolation_M(cf)
    assert len(M) - 1 == q ** (d - 1)
    ginv = gauss_sum_inv(cf)
    sgn = cf.one if (d + 1) % 2 == 0 else -cf.one
    chl = carlitz_dl(spec, d - 1)[1].eval(cf.zeta)
    assert M[q ** (d - 1)] == sgn * ginv * chl.inv()
    tm_inv = cf.const(spec.poly([spec.zero - cf.zeta, spec.one])).inv()
    lin = sgn * cf.const(cf.prime) * cf.const(chl.inv()) * tm_inv * ginv
    assert M[1] == lin


# torsion fields for the unit-orbit sums, q in {2, 3, 4, 5, 7}: _tf arguments
_ORBIT_FIELDS = [
    (2, 1, 2, (1, 1, 1)), (2, 1, 2, (1, 1, 1), 1), (2, 1, 3, (1, 1, 0, 1)),
    (3, 1, 2, (1, 0, 1)), (3, 1, 2, (2, 2, 1), 1), (2, 2, 2, (2, 1, 1)),
    (5, 1, 2, (2, 0, 1)), (5, 1, 2, (2, 0, 1), 1), (7, 1, 1, (3, 1)),
    (7, 1, 2, (1, 0, 1)),
]


@functools.lru_cache(maxsize=None)
def _M_reference(args):
    return interpolation_M_per_residue(_tf(*args))


@functools.lru_cache(maxsize=None)
def _moment_reference(args, k):
    return moment_per_residue(_tf(*args), k)


@settings(max_examples=14, deadline=None)
@given(st.sampled_from(_ORBIT_FIELDS), st.integers(0, 3), st.integers(0, 48))
@example((7, 1, 2, (1, 0, 1)), 3, 9)
@example((2, 2, 2, (2, 1, 1)), 3, 6)
def test_orbit_sums_match_per_residue(args, j, a_index):
    # one term per unit orbit gives the per-residue M and moment exactly, at
    # the thm4 weight k0 - 1 (j = 3) and at the small weights 0, 1 and 2
    cf = _tf(*args)
    q, d = cf.spec.q, cf.d
    k = q ** (d - 1) * (q - 1) - 1 if j == 3 else j
    assert interpolation_M(cf) == _M_reference(args)
    assert cf.const(cf.prime) ** k * torsion_moment(cf, k) == _moment_reference(args, k)
    # a residue of either kind, monic or not, against the C_a-coefficient route
    a = enumerate_A(cf.spec, d)[a_index % q**d]
    assert action_at_lam(cf, a) == action_at_lam_direct(cf, a)


@pytest.mark.parametrize("args", sorted({args[:4] for args in _ORBIT_FIELDS}))
def test_differential_action_at_lam_routes(args):
    # sum_i a_i C_{theta^i}(lambda) against sum_j c_j lambda^(q^j) over the
    # coefficients of C_a, for every a of degree <= d + 1: zero, monic and
    # not, and multiples of the prime
    cf = _tf(*args)
    for a in enumerate_A(cf.spec, cf.d + 2):
        assert action_at_lam(cf, a) == action_at_lam_direct(cf, a)


# -- exact identities in two symbols


def test_telescope_degree_two_frozen():
    spec = make_field(3, 1, 1)
    den, lhs, rhs = telescope_pair(spec, 2)
    q = spec.q
    mono = [spec.zero] * (q + 1)
    mono[q] = spec.one
    xq = GFPoly(spec, tuple(mono), "x")
    ell1 = [spec.zero] * (q + 1)
    ell1[1] = spec.one
    ell1[q] = spec.zero - spec.one
    assert den == GFPoly(spec, tuple(ell1), "x")
    assert lhs[0] == GFPoly(spec, (), "x") - xq
    assert lhs[1] == GFPoly(spec, (spec.one,), "x")
    assert lhs == rhs


@pytest.mark.parametrize("p,e,dmax", [(2, 1, 6), (3, 1, 5), (2, 2, 4)])
def test_telescope_all_depths(p, e, dmax):
    spec = make_field(p, e, 1)
    for d in range(1, dmax + 1):
        _, lhs, rhs = telescope_pair(spec, d)
        assert lhs == rhs
        assert poly_degree(rhs) == d - 1


def test_telescope_guards():
    with pytest.raises(ShapeMismatchError):
        telescope_pair(make_field(2, 1, 1), 0)
    with pytest.raises(SizeLimitError):
        telescope_pair(make_field(3, 1, 1), 8)


def _kernel_product(spec, j):
    """prod_{k<j} (y - x^{q^k}) as y-coefficients over F_q[x]."""
    out = [GFPoly(spec, (spec.one,), "x")]
    for k in range(j):
        mono = [spec.zero] * (spec.q**k + 1)
        mono[spec.q**k] = spec.one
        xq = GFPoly(spec, tuple(mono), "x")
        nxt = [GFPoly(spec, (), "x")] * (len(out) + 1)
        for m, c in enumerate(out):
            nxt[m + 1] = nxt[m + 1] + c
            nxt[m] = nxt[m] - xq * c
        out = nxt
    return out


@pytest.mark.parametrize("p,d,j", [(2, 4, 1), (2, 4, 2), (2, 4, 3), (3, 3, 1), (3, 3, 2)])
def test_monic_sums_identity(p, d, j):
    # sum over monic a of degree j of a(y)/a(zeta) is the kernel
    # prod_{k<j} (y - zeta^{q^k}) over l_j(zeta); its top coefficient is the
    # inverse-value sum 1/l_j(zeta)
    spec = make_field(p, 1, d)
    zeta = _generator(spec)
    got = [spec.zero] * (j + 1)
    for a in enumerate_A(spec, j, monic=True):
        v = a.eval(zeta).inv()
        for m, c in enumerate(a.coeffs):
            got[m] = got[m] + c * v
    l_inv = carlitz_dl(spec, j, "x")[1].eval(zeta).inv()
    assert got == [c.eval(zeta) * l_inv for c in _kernel_product(spec, j)]


def test_invariants_raise_when_broken(monkeypatch):
    # the proved identities are checked by explicit raises, which python -O
    # keeps; break each one and expect the raise
    spec = make_field(2, 1, 2)
    prime = spec.poly([1, 1, 1])
    cf = CycField(spec, prime, roots_in_ext(prime, spec)[0])
    gauss_sum(cf)
    monkeypatch.setattr(cyclotomic.CycElem, "inv", lambda self: self)
    with pytest.raises(InvariantError):
        gauss_sum_inv(cf)
    monkeypatch.undo()
    # C_P(x + 1) = C_P(x) + P, so a shifted node is no root of C_P
    act = cyclotomic.action_at_lam
    monkeypatch.setattr(cyclotomic, "action_at_lam", lambda cf, b: act(cf, b) + cf.one)
    with pytest.raises(InvariantError):
        interpolation_M(cf)
    # at q = 3 the shifted node leaves a remainder in the division by W - x^2
    spec3 = make_field(3, 1, 2)
    prime3 = spec3.poly([1, 0, 1])
    cf3 = CycField(spec3, prime3, roots_in_ext(prime3, spec3)[0])
    with pytest.raises(InvariantError, match="not a root"):
        interpolation_M(cf3)
    monkeypatch.undo()
    # a term of rho at an odd power of Z: rho is no polynomial in W = Z^2
    cf3 = CycField(spec3, prime3, roots_in_ext(prime3, spec3)[0])
    cf3.rho = (cf3.rho[0], cf3.poly_one) + cf3.rho[2:]
    with pytest.raises(InvariantError, match="off the multiples"):
        interpolation_M(cf3)
    # scaled by theta^2 + theta + 1, D_j leaves remainders: E_j(a) is no polynomial
    monkeypatch.setattr(cyclotomic, "basis_E", _bent_basis)
    with pytest.raises(InvariantError):
        M_from_gauss(cf)


def _bent_basis(spec, j):
    e, d = basis_E(spec, j)
    return e, d * spec.poly([1, 1, 1])


def test_ca_ej_fails_on_non_polynomial_quotient(monkeypatch):
    # e_j + Z for j >= 2: at q = 2, deg a < 4 < deg D_j, so e_j(a) + a keeps
    # the quotient by D_j and leaves the remainder a; only that remainder fails
    def with_remainder(spec, j):
        e, d = basis_E(spec, j)
        return (lin_add(spec, e, (spec.poly([1]),)) if j >= 2 else e), d

    monkeypatch.setattr(verify, "basis_E", with_remainder)
    rep = verify.run_check(verify.CheckConfig(check="ca-ej-oracle", p=2))
    assert rep.status == "fail"


# -- the numeric embedding


def _ctx22():
    return Completion(2, 1, 2)


def test_embed_is_ring_hom():
    ctx = _ctx22()
    B = default_budget(ctx, 40)
    cf = _tf(2, 1, 2, (1, 1, 1))
    x = cf.lam + cf.one
    y = cf.lam * cf.lam + cf.const(cf.spec.poly([0, 1]))
    ex, ey = embed(x, ctx, B), embed(y, ctx, B)
    ds = embed(x + y, ctx, B) - (ex + ey)
    assert ds.is_zero() and ds.prec >= B.prec
    dm = embed(x * y, ctx, B) - ex * ey
    assert dm.is_zero() and dm.prec >= B.prec
    du = embed(cf.one, ctx, B) - ctx.one()
    assert du.is_zero() and du.prec >= B.prec


def test_fraction_free_embed_divides_by_den():
    # an element with a denominator embeds as its numerator times 1/den
    ctx = _ctx22()
    B = default_budget(ctx, 40)
    cf = _tf(2, 1, 2, (1, 1, 1))
    x = cf.lam + cf.one
    den = cf.spec.poly([1, 1, 1, 1])
    y = x * cf.const(den).inv()
    assert y.den == den
    diff = embed(y, ctx, B) * ctx.embed_poly(den) - embed(x, ctx, B)
    assert diff.is_zero() and diff.prec >= B.prec


def test_embedded_generator_is_torsion():
    # the embedded generator is a root of the action polynomial of the prime
    ctx = _ctx22()
    B = default_budget(ctx, 40)
    cf = _tf(2, 1, 2, (1, 1, 1))
    lam_num = embed(cf.lam, ctx, B)
    # |e_C(1/prime)| = q^{q/(q-1) - d}: the period factor shifts |1/prime|
    assert lam_num.valuation() == ctx.ram * cf.d - ctx.q
    acc = ctx.zero(B.wp)
    for jj, c in enumerate(carlitz_poly(cf.spec, cf.prime)):
        if c.is_zero():
            continue
        acc = acc + lam_num.qpow(jj) * ctx.embed_poly(c)
    assert acc.is_zero()
    assert acc.prec >= B.prec


def test_embed_field_mismatch():
    ctx = Completion(3, 1, 1)
    cf = _tf(2, 1, 2, (1, 1, 1))
    with pytest.raises(FieldMismatchError):
        embed(cf.one, ctx, default_budget(ctx, 24))


def test_numeric_interpolation_matches_exact():
    # Lagrange over the completion, at the exponential values of the
    # residues, agrees with the embedded exact interpolant
    ctx = _ctx22()
    B = default_budget(ctx, 40)
    cf = _tf(2, 1, 2, (1, 1, 1))
    m_emb = ctx.embed_poly(cf.prime)
    m_inv = m_emb.inv(B.wp + 2 * cf.d * ctx.ram + ctx.q)
    bs = enumerate_A(cf.spec, cf.d)
    nodes = [carlitz_e(ctx, ctx.embed_poly(b) * m_inv, B) for b in bs]
    values = [m_emb.scale(b.eval(cf.zeta)) for b in bs]
    # each inverse to the precision its inexact denominator carries
    Mn = _lagrange(nodes, values, ctx.one(), ctx.zero(B.wp),
                   inv=lambda x: x.inv(x.prec - x.valuation()))
    Me = interpolation_M(cf)
    assert len(Mn) == cf.spec.q**cf.d
    for k, c in enumerate(Mn):
        diff = c - embed(Me[k] if k < len(Me) else cf.zero, ctx, B)
        assert diff.is_zero()
        assert diff.prec >= 30


def test_omega_value_against_gauss_sum():
    # ev at the torsion root transports the product formula to the exact side
    ctx = _ctx22()
    B = default_budget(ctx, 40)
    from carlitz.functions import omega

    om = omega(ctx, 30, B)
    spec = make_field(2, 1, 2)
    prime = spec.poly([1, 1, 1])
    for zeta in roots_in_ext(prime, spec):
        cf = CycField(spec, prime, zeta)
        g = embed(gauss_sum(cf), ctx, B)
        chl = carlitz_dl(spec, cf.d - 1)[1].eval(zeta)
        diff = om.ev((zeta,)) + g.scale(chl)
        assert diff.is_zero()
        assert diff.prec >= 28
