"""Identity-check registry: every runnable verification behind the CLI.

Each check computes a residual object (a completion scalar or a Tate-algebra
element) whose certified level is compared against the declared budget.  The
budget is the requested precision clamped by what the truncation caps can
actually certify, so a pass never rests on an eyeballed tolerance.  Exact
algebraic checks report the marker "exact" instead of a margin.
"""

import functools
import math
import time
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CarlitzError,
    ConfigError,
    SizeLimitError,
    UnknownCheckError,
)
from .fields import (
    carlitz_dl,
    enumerate_A,
    guard_depth,
    make_field,
    poly_degree,
    poly_trim,
    roots_in_ext,
)
from .laurent import NEG_INF, PREC_EXACT, Completion, sample_z
from .tate import (
    TateElem,
    _val_floor,
    tate_const,
    tate_t_minus_theta,
    tate_zero,
)
from .functions import (
    L_multi,
    SeriesBudget,
    agf_f,
    carlitz_e,
    chi_t,
    default_budget,
    modulus_inv,
    omega,
    papanikolas_L,
    pi_tilde,
    psi,
    psi_family,
    ram_solve,
    u_m_val,
    u_val,
)
from .cyclotomic import (
    CycField,
    action_at_lam,
    basis_E,
    carlitz_poly,
    embed,
    galois_sigma,
    gauss_sum,
    gauss_sum_inv,
    interpolation_M,
    lin_eval,
    M_from_gauss,
    node_eval,
    telescope_pair,
    torsion_guard,
    torsion_moment,
)

_MARGIN_CAP = 10000
_GENSERIES_KMAX = 2  # a generating-series fit has kmax * ram + s + 2 nodes


@dataclass
class CheckConfig:
    check: str = ""
    p: int = 3
    e: int = 1
    prime: tuple | None = None
    prime2: tuple | None = None
    root_index: int | None = None
    prec: int = 40
    tcap: int = 12
    degcap: int = 12
    samples: int = 5
    seed: int = 0


@dataclass
class SampleResult:
    index: int
    label: str
    status: str
    residual_valuation: object
    certified: object = "exact"
    detail: str = ""


@dataclass
class CheckReport:
    check: str
    params: dict
    status: str
    residual_valuation: object
    samples: list
    elapsed_ms: int


@dataclass(frozen=True)
class CheckDef:
    formula: str
    runner: object
    needs_prime: bool = False
    allows_prime2: bool = False
    min_q: int = 2


# -- residual bookkeeping


def _levels(resid):
    """(level, zero_cap) of a residual.

    level: the valuation down to which the residual is certified zero, or the
    exact valuation of its resolved leading term.  zero_cap: the best level a
    fully vanishing residual could have certified under the same caps.
    """
    if isinstance(resid, TateElem):
        lvl = int(resid.vals.min()) if resid.keys else PREC_EXACT
        if resid.tail_norm_exp != NEG_INF:
            lvl = min(lvl, _val_floor(resid.tail_norm_exp, resid.ctx.ram))
        return lvl, resid.prec_floor()
    lvl = resid.prec if resid.is_zero() else resid.valuation()
    return lvl, resid.prec


def _residual_sample(idx, label, resid, prec, shift=0, cap=None, detail=""):
    """Margin: slack of the certified level over the effective budget (the
    requested precision clamped by what the truncations can certify); pass
    iff nonnegative.  Certified: the vanishing valuation actually certified,
    normalized by shift and clamped at the request, so escalating prec can
    only raise it."""
    lvl, zcap = _levels(resid)
    if cap is not None:
        zcap = min(zcap, cap)
        lvl = min(lvl, cap)
    budget = min(prec + shift, zcap)
    margin = min(lvl - budget, _MARGIN_CAP)
    status = "pass" if margin >= 0 else "fail"
    cert = min(lvl - shift, prec)
    return SampleResult(idx, label, status, margin, cert, detail)


def _exact_sample(idx, label, ok, detail=""):
    return SampleResult(idx, label, "pass" if ok else "fail", "exact", "exact", detail)


def _norm_str(z):
    return f"q^{Fraction(z.norm_exp())}"


def _z_samples(rc, draw, residual, norm=True):
    """One residual sample per z = draw(i), i < samples, labelled z#i and,
    with norm, |z|; each z is drawn before its residual is formed."""
    out = []
    for i in range(rc.cfg.samples):
        z = draw(i)
        label = f"z#{i} |z|={_norm_str(z)}" if norm else f"z#{i}"
        out.append(_residual_sample(i, label, residual(z), rc.cfg.prec))
    return out


# -- resolved run state


@functools.cache
def _completion(p, e, d):
    """The one completion of a tower for the whole process: its cache holds
    the constants and block tables that depend on the tower and the budget
    alone, so every check over that tower shares them."""
    return Completion(p, e, d)


class _Run:
    __slots__ = ("cfg", "p", "e", "q", "ram", "prime", "prime2", "rng")

    def __init__(self, cfg, prime, prime2):
        self.cfg = cfg
        self.p = cfg.p
        self.e = cfg.e
        self.q = cfg.p**cfg.e
        self.ram = self.q - 1
        self.prime = prime
        self.prime2 = prime2
        self.rng = random.Random(f"{cfg.seed}:{cfg.check}")

    def series(self, d=1):
        """(ctx, B): the degree-d completion and the default series budget at
        the configured precision, the one budget rule of the runners."""
        ctx = _completion(self.p, self.e, d)
        return ctx, default_budget(ctx, self.cfg.prec)

    def ctx_degree(self, d=1):
        """d, raised to 2 when q = 2: the q = 2 base completion has no point
        with |z|_im >= 1, so samples far from the rational lattice need a
        quadratic context."""
        return 2 if self.q == 2 and d == 1 else d


def _default_prime(p, e):
    spec = make_field(p, e, 1)
    q = spec.q
    for idx in range(q * q):
        coeffs = (idx % q, idx // q, 1)
        if spec.poly(coeffs).is_irreducible():
            return coeffs
    raise ConfigError("no monic irreducible quadratic found")


# -- samplers


_MIX_REGIMES = ("small", "unit", "large")


def _mixed_z(rc, ctx, i):
    return sample_z(ctx, rc.rng, _MIX_REGIMES[i % len(_MIX_REGIMES)])


def _inner_z(rc, ctx, i):
    return sample_z(ctx, rc.rng, "small" if i % 2 == 0 else "unit")


def _imag_z(rc, ctx, j):
    """A point at distance at least q^j from every rational-field element."""
    ram, spec = ctx.ram, ctx.spec
    if ctx.d > 1:
        coords = [0] * spec.m
        pos = rc.rng.randrange(1, ctx.d)
        coords[rc.rng.randrange(spec.e) + spec.e * pos] = rc.rng.randrange(1, ctx.p)
        lead = spec.elem(coords)
        v = -ram * j
    else:
        if ctx.q == 2:
            raise ConfigError("q=2 needs a quadratic context for imaginary samples")
        v = -ram * j - rc.rng.randrange(1, ram)
        lead = spec.from_index(rc.rng.randrange(1, spec.order))
    terms = [(v, lead)]
    for k in range(v + 1, v + 3):
        c = spec.from_index(rc.rng.randrange(spec.order))
        if not c.is_zero():
            terms.append((k, c))
    terms.append((1 + rc.rng.randrange(0, 3), spec.from_index(rc.rng.randrange(1, spec.order))))
    return ctx.from_terms(terms)


def _lt_q_z(rc, ctx, i):
    """|z| < q: unit or inner samples pushed at most ram - 1 steps outward."""
    z = sample_z(ctx, rc.rng, "small" if i % 3 == 2 else "unit")
    k = rc.rng.randrange(0, ctx.ram)
    if k:
        z = z * ctx.u_pow(-k)
    return z


# -- shared numeric pieces


def _residue_rows(ctx, spec, m_poly, roots_by_var, J, B):
    """The scaled residue exponentials m * e(b/m) with their character
    weights prod_{j in J} b(zeta_j), one (value, weight) row per residue b.

    Also returns the largest norm exponent of m * e(b/m) over b != 0, which
    gives the bound |moment_k| <= q^(k * top).
    """
    m_emb = ctx.embed_poly(m_poly)
    m_inv = modulus_inv(ctx, m_poly, B.wp)
    rows = []
    top = NEG_INF
    for b in enumerate_A(spec, m_poly.degree):
        if b.is_zero():
            val = ctx.zero()
        else:
            val = m_emb * carlitz_e(ctx, ctx.embed_poly(b) * m_inv, B)
            top = max(top, val.norm_exp())
        w = spec.one
        for j in J:
            w = w * b.eval(roots_by_var[j])
        rows.append((val, w))
    return rows, top


class _Moments:
    """The character-weighted power sums of one set of residue rows,
    moment_k = sum over rows (val, w) of val^k * w, kept for every sample:
    upto(count) extends the list only past the counts asked for before."""

    def __init__(self, ctx, rows, B):
        self.ctx, self.rows, self.wp = ctx, rows, B.wp
        self.sums = []
        self._pows = [ctx.one() for _ in rows]  # val^k for k = len(sums)

    def upto(self, count):
        """The first count moments."""
        while len(self.sums) < count:
            if self.sums:
                self._pows = [pw * val for (val, _), pw in zip(self.rows, self._pows)]
            tot = self.ctx.zero(self.wp)
            for (_, w), pw in zip(self.rows, self._pows):
                tot = tot + pw.scale(w)
            self.sums.append(tot)
        return self.sums[:count]


def _series_tail_floor(um, top_exp, K, ram, scale_exp=0):
    """Valuation floor for sum_{k >= K} u^(k+1) * moment_k, moments scaled by
    a factor of norm exponent scale_exp; the largest term sits at k = K."""
    exp = Fraction(scale_exp) + (K + 1) * Fraction(um.norm_exp()) + K * Fraction(top_exp)
    return _val_floor(exp, ram)


def _sup_parts(chi):
    """(resolved sup exponent, tail exponent or None) of a Tate element."""
    tail = None if chi.tail_norm_exp == NEG_INF else chi.tail_norm_exp
    return chi.gauss_norm_exp(), tail


def _torsion_for(rc, every, d=None):
    """(spec, prime, roots) for the configured prime over F_{q^d}, d the
    prime's degree unless given; roots as _chosen_roots picks them."""
    spec = make_field(rc.p, rc.e, d or len(rc.prime) - 1)
    prime = spec.poly(rc.prime)
    return spec, prime, _chosen_roots(rc, prime, spec, every)


def _chosen_roots(rc, prime, spec, every):
    """(index, root) pairs of the roots of prime to check: the one at the
    configured root index, else every root or only the first."""
    rs = roots_in_ext(prime, spec)
    i = rc.cfg.root_index
    if i is None:
        return list(enumerate(rs if every else rs[:1]))
    if not 0 <= i < len(rs):
        raise ConfigError(f"root index {i} out of range ({len(rs)} roots)")
    return [(i, rs[i])]


# -- analytic runners


def _run_thm1_psi1(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    pi = pi_tilde(ctx, B)
    om = omega(ctx, cfg.tcap, B)
    tmn = -tate_t_minus_theta(ctx, 1, cfg.tcap, 0)

    def residual(z):
        ec = carlitz_e(ctx, z, B)
        p1 = psi(ctx, 1, z, cfg.degcap, cfg.tcap, B)
        lhs = (p1 * tmn * om).scalar_mul(ec)
        rhs = papanikolas_L(ctx, ec, cfg.tcap, B).scalar_mul(pi)
        return lhs - rhs

    return _z_samples(rc, lambda i: sample_z(ctx, rc.rng, "small"), residual), {}


def _run_eq5(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    om = omega(ctx, cfg.tcap, B)
    tmn = -tate_t_minus_theta(ctx, 1, cfg.tcap, 0)
    lhs = L_multi(ctx, 1, 1, cfg.degcap, cfg.tcap, B) * tmn * om
    rhs = tate_const(ctx, 1, cfg.tcap, pi_tilde(ctx, B))
    return [_residual_sample(0, "global", lhs - rhs, cfg.prec)], {}


def _run_eq3(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    tmn = -tate_t_minus_theta(ctx, 1, cfg.tcap, 0)

    def residual(z):
        lhs = papanikolas_L(ctx, carlitz_e(ctx, z, B), cfg.tcap, B)
        rhs = agf_f(ctx, z, cfg.tcap, B) * tmn
        return lhs - rhs

    return _z_samples(rc, lambda i: sample_z(ctx, rc.rng, "small"), residual), {}


def _run_eq1(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    tmt = tate_t_minus_theta(ctx, 1, cfg.tcap, 0)

    def residual(z):
        f = agf_f(ctx, z, cfg.tcap, B)
        ec = tate_const(ctx, 1, cfg.tcap, carlitz_e(ctx, z, B))
        return f.tau() - ec - f * tmt

    return _z_samples(rc, lambda i: _mixed_z(rc, ctx, i), residual), {}


def _run_eq2(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    om = omega(ctx, cfg.tcap, B)
    tmt = tate_t_minus_theta(ctx, 1, cfg.tcap, 0)
    return [_residual_sample(0, "global", om.tau() - om * tmt, cfg.prec)], {}


def _subsets(idx):
    out = [()]
    for i in idx:
        out += [s + (i,) for s in out]
    return out


def _run_thm2(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    n = max(2, cfg.samples)
    zs = [_inner_z(rc, ctx, i) for i in range(n)]
    chis = {}
    psis = {}

    def chi_slot(k, i):
        if k not in chis:
            chi = chi_t(ctx, zs[k], cfg.tcap, B)
            chis[k] = [chi.embed_vars(2, (j,)) for j in (0, 1)]
        return chis[k][i]

    def psi_sub(k, J):
        if k not in psis:
            subsets = _subsets((0, 1))
            powers = [tuple(1 if i in S else 0 for i in (0, 1)) for S in subsets]
            fam = psi_family(ctx, 2, zs[k], cfg.degcap, cfg.tcap, B, powers)
            psis[k] = dict(zip(subsets, fam))
        return psis[k][J]

    def h_val(k, I):
        comp = [i for i in (0, 1) if i not in I]
        acc = tate_zero(ctx, 2, cfg.tcap)
        for J in _subsets(comp):
            term = psi_sub(k, J)
            rest = [i for i in comp if i not in J]
            for i in rest:
                term = term * chi_slot(k, i)
            acc = acc + (-term if len(rest) % 2 else term)
        return acc

    out = []
    consts = {}
    for idx, I in enumerate(((), (0,), (1,))):
        vals = [h_val(k, I) for k in range(n)]
        consts[I] = vals[0]
        worst = min((vals[0] - v for v in vals[1:]), key=lambda r: _levels(r)[0])
        name = "h(%s)" % (",".join(str(i + 1) for i in I) or "empty")
        out.append(_residual_sample(idx, f"{name} constant across {n} points",
                                    worst, cfg.prec))
    pi = pi_tilde(ctx, B)
    for k in range(1, n):
        lhs = psi_sub(k, (0, 1))
        main = (chi_slot(k, 0) * chi_slot(k, 1)).scalar_mul(pi * u_val(ctx, zs[k], B))
        rest = consts[()] + chi_slot(k, 0) * consts[(0,)] + chi_slot(k, 1) * consts[(1,)]
        out.append(_residual_sample(len(out), f"decomposition z#{k}",
                                    lhs - main - rest, cfg.prec))
    return out, {"arity": 2}


def _run_thm3(rc):
    cfg = rc.cfg
    spec, prime, roots = _torsion_for(rc, every=True)
    dp = prime.degree
    ctx, B = rc.series(dp)
    om = omega(ctx, cfg.tcap, B)
    chl = carlitz_dl(spec, dp - 1)[1]
    out = []
    for i, zeta in roots:
        cf = CycField(spec, prime, zeta)
        g = gauss_sum(cf)
        ev = om.ev((zeta,))
        resid = ev + embed(g, ctx, B).scale(chl.eval(zeta))
        out.append(_residual_sample(len(out), f"root#{i}", resid, cfg.prec))
    return out, {"d": dp}


def _run_thm4(rc):
    cfg = rc.cfg
    dp = len(rc.prime) - 1
    d_ctx = rc.ctx_degree(dp)
    spec, prime, roots = _torsion_for(rc, every=False, d=d_ctx)
    zeta = roots[0][1]
    cf = CycField(spec, prime, zeta)
    ctx, B = rc.series(d_ctx)
    k0 = rc.q ** (dp - 1) * rc.ram
    pi = pi_tilde(ctx, B)
    pinv = pi.inv(B.wp)
    p_emb = ctx.embed_poly(prime)

    # closed form of the leading coefficient; the prime power rescales the
    # inverse-Gauss-sum expression to the series variable u_prime
    chl = carlitz_dl(spec, dp - 1)[1].eval(zeta)
    pe = cf.const(prime)
    pk = pe ** (k0 - 1)
    a0 = pk * pe * gauss_sum_inv(cf) * cf.const(chl.inv())
    if (dp + 1) % 2:
        a0 = -a0
    # the leading coefficient has norm up to q^(d*(k0+2)); widen the pad
    eB = SeriesBudget(min(8, cfg.prec), B.pad + dp * (k0 + 2) * ctx.ram)
    a0_emb = embed(a0, ctx, eB)
    a0_val = a0_emb.valuation()

    out = []
    rows, top = _residue_rows(ctx, spec, prime, {0: zeta}, (0,), B)
    sums = _Moments(ctx, rows, B)
    moments = sums.upto(k0)
    for k in range(k0 - 1):
        out.append(_residual_sample(len(out), f"moment {k} vanishes", moments[k], cfg.prec))

    # exact leading coefficient: the residue moment sum_b (P * C_b(lambda))^(k0-1)
    # * chi(b) lives in the torsion field; P^(k0-1) leaves the sum
    c_exact = pk * torsion_moment(cf, k0 - 1)
    out.append(_exact_sample(len(out), "leading coefficient, torsion-exact",
                             (pe * c_exact - a0).is_zero()))
    out.append(_residual_sample(len(out), "leading coefficient, embedded",
                                p_emb * moments[k0 - 1] - a0_emb, cfg.prec, shift=a0_val))

    n = max(2, min(cfg.samples, 4))
    for i in range(n):
        # candidates drawn unconditionally so the stream is budget-independent;
        # pick the deepest one whose leading series term stays resolvable
        cands = []
        for j in (dp + i % 3, dp + (i + 1) % 3, dp):
            zc = _imag_z(rc, ctx, j)
            cands.append((zc, u_m_val(ctx, zc, prime, B)))
        z, um = cands[-1]
        for zc, umc in cands:
            if k0 * umc.valuation() + a0_val + 6 <= B.wp - 4:
                z, um = zc, umc
                break
        vu = um.valuation()
        p1 = psi(ctx, 1, z, cfg.degcap, cfg.tcap, B)
        pw = (p1.ev((zeta,)) * pinv) * p_emb
        want = k0 * vu + a0_val
        order_ok = (not pw.is_zero()) and pw.valuation() == want
        out.append(_exact_sample(len(out), f"order at z#{i}", order_ok,
                                 f"val={'zero' if pw.is_zero() else pw.valuation()} want {want}"))
        target = min(cfg.prec + want, B.wp)
        K = k0
        while K < k0 + 150 and _series_tail_floor(um, top, K, ctx.ram, dp) < target:
            K += 1
        mom = sums.upto(K)
        upow = um**k0
        series = a0_emb * upow
        for k in range(k0, K):
            upow = upow * um
            series = series + (p_emb * mom[k]) * upow
        tail = _series_tail_floor(um, top, K, ctx.ram, dp)
        out.append(_residual_sample(len(out), f"series at z#{i} (K={K})", pw - series,
                                    cfg.prec, shift=want, cap=tail))
    return out, {"d": dp, "k0": k0, "d_ctx": d_ctx}


def _genseries_samples(rc, s_list):
    cfg = rc.cfg
    ctx, B = rc.series()
    out = []
    for s in s_list:
        tcap = cfg.tcap if s else 0
        M = _GENSERIES_KMAX * rc.ram + s + 2
        a = max(3, B.wp // (M + 2))
        n0 = 0 if s == 0 else 1
        ns = list(range(n0, n0 + M))
        base = ctx.one() + ctx.u_pow(1)
        nodes = []
        g = ctx.one()
        for _ in range(M):
            nodes.append(ctx.u_pow(a) * g)
            g = g * base
        model_prec = a * (M + 1)
        vals = [psi(ctx, s, z, cfg.degcap, tcap, B).scalar_mul(z) for z in nodes]
        rows = []
        for z in nodes:
            # running powers: the nodes are exact, so z^n = z^(n-1) * z is z**n
            row = [z**n0]
            for _ in ns[1:]:
                row.append(row[-1] * z)
            rows.append(row)
        keys = sorted(set().union(*[v.keys for v in vals]))
        # one read of each frame gives every key's right-hand side
        rhs = list(zip(*[v.coeffs_at(keys, model_prec) for v in vals]))
        sols = ram_solve(rows, rhs, B.wp)  # per key, the coefficient of each z^n
        for jj, n in enumerate(ns):
            in_class = (n - s) % rc.ram == 0
            if in_class and n == 0:
                ref = tate_const(ctx, 0, 0, ctx.one())
            elif in_class:
                ref = L_multi(ctx, s, n, cfg.degcap, tcap, B)
            else:
                ref = None
            refs = ref.coeffs_at(keys) if ref is not None else [ctx.zero(B.wp)] * len(keys)
            worst = min((xs[jj] - y for xs, y in zip(sols, refs)), key=lambda r: _levels(r)[0])
            label = f"s={s} n={n} " + ("matches L-value" if in_class else "vanishes")
            out.append(_residual_sample(len(out), label, worst, cfg.prec))
    return out, {"kmax": _GENSERIES_KMAX}


def _run_tau_psi1(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    pi = pi_tilde(ctx, B)
    L1 = L_multi(ctx, 1, 1, cfg.degcap, cfg.tcap, B)

    def residual(z):
        w = pi * u_val(ctx, z, B)
        p1 = psi(ctx, 1, z, cfg.degcap, cfg.tcap, B)
        return p1.tau() - (p1 - L1).scalar_mul(w ** (rc.q - 1))

    return _z_samples(rc, lambda i: _inner_z(rc, ctx, i), residual, norm=False), {}


def _run_phi_psi1(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    pi = pi_tilde(ctx, B)
    Lq = L_multi(ctx, 1, 1, cfg.degcap, cfg.tcap, B, powers=(rc.q,))

    def residual(z):
        w = pi * u_val(ctx, z, B)
        p1 = psi(ctx, 1, z, cfg.degcap, cfg.tcap, B)
        lhs = p1.phi(0)
        rhs = (p1.tau().phi(0)).scalar_mul(w.inv(B.wp) ** (rc.q - 1)) + Lq
        return lhs - rhs

    return _z_samples(rc, lambda i: _inner_z(rc, ctx, i), residual, norm=False), {}


def _run_lem31(rc):
    cfg = rc.cfg
    d_ctx = rc.ctx_degree()
    ctx, B = rc.series(d_ctx)
    regimes = ("small", "unit", "large", "imag_large")
    out = []
    for i in range(cfg.samples):
        reg = regimes[i % 4]
        z = sample_z(ctx, rc.rng, reg)
        res, tail = _sup_parts(chi_t(ctx, z, cfg.tcap, B))
        bound = max(Fraction(0), Fraction(carlitz_e(ctx, z, B).norm_exp()) / rc.q)
        ok = res <= bound and (tail is None or tail <= bound)
        out.append(_exact_sample(i, f"{reg} z#{i}", ok,
                                 f"sup q^{res} vs bound q^{bound}"))
    return out, {"d_ctx": d_ctx}


def _run_lem32(rc):
    cfg = rc.cfg
    ctx, B = rc.series()
    out = []
    for i in range(cfg.samples):
        z = _lt_q_z(rc, ctx, i)
        res, tail = _sup_parts(chi_t(ctx, z, cfg.tcap, B))
        want = Fraction(z.norm_exp())
        ok = res == want and (tail is None or tail <= want)
        out.append(_exact_sample(i, f"z#{i} |z|={_norm_str(z)}", ok,
                                 f"sup q^{res} want q^{want}"))
    return out, {}


def _run_growth(rc):
    cfg = rc.cfg
    d_ctx = rc.ctx_degree()
    ctx, B = rc.series(d_ctx)
    q = rc.q
    out = [_exact_sample(0, "period norm q^(q/(q-1))",
                         Fraction(pi_tilde(ctx, B).norm_exp()) == Fraction(q, q - 1))]
    for i in range(cfg.samples):
        z = sample_z(ctx, rc.rng, "imag_large")
        ec_exp = Fraction(carlitz_e(ctx, z, B).norm_exp())
        res, tail = _sup_parts(chi_t(ctx, z, cfg.tcap, B))
        want = -Fraction(1, q - 1) + ec_exp / q
        ok = res == want and (tail is None or tail <= want)
        recip_ok = ec_exp >= 1
        out.append(_exact_sample(len(out), f"z#{i}", ok and recip_ok,
                                 f"sup q^{res} want q^{want}; |1/e|<=1/q: {recip_ok}"))
    return out, {"d_ctx": d_ctx}


def _run_prop51(rc):
    cfg = rc.cfg
    cases = [((rc.prime,), (0,))]
    if rc.prime2 is not None:
        cases.append(((rc.prime, rc.prime2), (0, 1)))
    out = []
    extras = {}
    for coeff_lists, J in cases:
        degs = [len(c) - 1 for c in coeff_lists]
        d_ctx = rc.ctx_degree(math.lcm(*degs))
        spec = make_field(rc.p, rc.e, d_ctx)
        primes = [spec.poly(c) for c in coeff_lists]
        # the root index selects a root of the first prime; prime2 uses its first
        roots = {0: _chosen_roots(rc, primes[0], spec, every=False)[0][1]}
        for j, f in enumerate(primes[1:], 1):
            roots[j] = roots_in_ext(f, spec)[0]
        m_poly = primes[0]
        for f in primes[1:]:
            m_poly = m_poly * f
        D = m_poly.degree
        ctx, B = rc.series(d_ctx)
        pinv = pi_tilde(ctx, B).inv(B.wp)
        s = len(J)
        rows, top = _residue_rows(ctx, spec, m_poly, roots, J, B)
        sums = _Moments(ctx, rows, B)
        for i in range(max(1, min(cfg.samples, 3))):
            z = _imag_z(rc, ctx, D + i)
            um = u_m_val(ctx, z, m_poly, B)
            if Fraction(um.norm_exp()) + Fraction(top) >= 0:
                raise ConfigError("sample too shallow for the residue series")
            K = 2
            while K < 160 and _series_tail_floor(um, top, K, ctx.ram) < cfg.prec + um.valuation():
                K += 1
            mom = sums.upto(K)
            w = psi(ctx, s, z, cfg.degcap, cfg.tcap, B).ev(tuple(roots[j] for j in J)) * pinv
            series = ctx.zero(B.wp)
            upow = ctx.one()
            for k in range(K):
                upow = upow * um
                series = series + mom[k] * upow
            tail = _series_tail_floor(um, top, K, ctx.ram)
            out.append(_residual_sample(len(out), f"s={s} z#{i} (K={K})", w - series,
                                        cfg.prec, shift=um.valuation(), cap=tail))
        extras[f"modulus_degree_s{s}"] = D
    return out, extras


def _run_cor52(rc):
    cfg = rc.cfg
    spec, prime, roots = _torsion_for(rc, every=False)
    zeta = roots[0][1]
    dp = prime.degree
    cf = CycField(spec, prime, zeta)
    M = interpolation_M(cf)
    ctx, B = rc.series(dp)
    coeffs = [embed(c, ctx, B) for c in M]
    p_emb = ctx.embed_poly(prime)
    p_inv = modulus_inv(ctx, prime, B.wp)

    def residual(z):
        w = carlitz_e(ctx, z * p_inv, B)
        val = ctx.zero(B.wp)
        for c in reversed(coeffs):
            val = val * w + c
        lhs = p_emb * chi_t(ctx, z, cfg.tcap, B).ev((zeta,))
        return lhs - val

    return _z_samples(rc, lambda i: _mixed_z(rc, ctx, i), residual), {"d": dp}


# -- exact runners


def _run_lem53(rc):
    spec, prime, roots = _torsion_for(rc, every=False)
    zeta = roots[0][1]
    cf = CycField(spec, prime, zeta)
    Ml = interpolation_M(cf)
    Mg = M_from_gauss(cf)
    out = [_exact_sample(0, "interpolation and Gauss-sum routes agree", Ml == Mg)]
    nodes_ok = True
    for b in enumerate_A(spec, prime.degree):
        want = cf.const(prime) * cf.const(b.eval(zeta))
        if not (node_eval(Ml, action_at_lam(cf, b)) - want).is_zero():
            nodes_ok = False
            break
    out.append(_exact_sample(1, "node values prime * character(b)", nodes_ok))
    qs = {rc.q**j for j in range(prime.degree)}
    shape_ok = all(c.is_zero() or k in qs for k, c in enumerate(Ml))
    out.append(_exact_sample(2, "support only on q-power exponents", shape_ok))
    return out, {"d": prime.degree}


def _run_lem55(rc):
    spec = make_field(rc.p, rc.e, 1)
    depth = max(1, min(rc.cfg.degcap, 8, guard_depth(rc.q)))
    out = []
    # both sides share one denominator, so they agree iff their numerators do
    for d, (_, lhs, rhs) in enumerate(telescope_pair(spec, depth), 1):
        ok = lhs == rhs and poly_degree(rhs) == d - 1
        out.append(_exact_sample(len(out), f"depth {d}", ok))
    return out, {"depth": depth}


def _run_cor56(rc):
    spec, prime, roots = _torsion_for(rc, every=True)
    d = prime.degree
    out = []
    for i, zeta in roots:
        cf = CycField(spec, prime, zeta)
        M = interpolation_M(cf)
        ginv = gauss_sum_inv(cf)
        sgn = cf.one if (d + 1) % 2 == 0 else -cf.one
        chl = carlitz_dl(spec, d - 1)[1].eval(zeta)
        deg_ok = len(M) - 1 == rc.q ** (d - 1)
        lead_ok = deg_ok and (M[-1] - sgn * ginv * cf.const(chl.inv())).is_zero()
        tm_inv = cf.const(spec.poly([spec.zero - zeta, spec.one])).inv()
        lin = sgn * cf.const(prime) * cf.const(chl.inv()) * tm_inv * ginv
        lin_ok = (M[1] - lin).is_zero()
        out.append(_exact_sample(len(out), f"root#{i}", deg_ok and lead_ok and lin_ok,
                                 f"deg={deg_ok} lead={lead_ok} linear={lin_ok}"))
    return out, {"d": d}


def _run_ca_ej(rc):
    cap = 4 if rc.q == 2 else 3
    spec = make_field(rc.p, rc.e, 1)
    es = [basis_E(spec, j) for j in range(cap)]
    ok, count = True, 0
    for a in enumerate_A(spec, cap):
        # E_j(a) = e_j(a) / D_j must be a polynomial
        quots = [divmod(lin_eval(ej, a), dj) for ej, dj in es]
        count += 1
        if (any(not r.is_zero() for _, r in quots)
                or carlitz_poly(spec, a) != tuple(poly_trim(v for v, _ in quots))):
            ok = False
            break
    return [_exact_sample(0, f"exhaustive, degree < {cap} ({count} elements)", ok)], {"cap": cap}


def _run_gauss_product(rc):
    spec, prime, roots = _torsion_for(rc, every=True)
    d = prime.degree
    out = []
    for i, zeta in roots:
        cf = CycField(spec, prime, zeta)
        g = gauss_sum(cf)
        ginv = gauss_sum_inv(cf)
        sgn = cf.one if d % 2 == 0 else -cf.one
        prod_ok = (g * ginv - sgn * cf.const(prime)).is_zero()
        int_ok = ginv.is_integral()
        eig_ok = True
        for b in enumerate_A(spec, d):
            if b.is_zero():
                continue
            if not (galois_sigma(b, g) - g * cf.const(b.eval(zeta))).is_zero():
                eig_ok = False
                break
        out.append(_exact_sample(len(out), f"root#{i}", prod_ok and int_ok and eig_ok,
                                 f"product={prod_ok} integral={int_ok} eigen={eig_ok}"))
    return out, {"d": d}


# -- the registry, in contract order


REGISTRY = {
    "thm1-psi1": CheckDef(
        "carlitz_e(z) * psi(1,z) * (theta-t) * omega == pi_tilde * papanikolas_L(carlitz_e(z))  [|z|<1]",
        _run_thm1_psi1),
    "eq5-pelsid": CheckDef(
        "L_multi(1,1) * (theta-t) * omega == pi_tilde",
        _run_eq5),
    "eq3-papdiffeq": CheckDef(
        "papanikolas_L(carlitz_e(z)) == (theta-t) * agf_f(z)  [|z|<1]",
        _run_eq3),
    "eq1-agf": CheckDef(
        "tau(agf_f(z)) == carlitz_e(z) + (t-theta) * agf_f(z)",
        _run_eq1),
    "eq2-omega": CheckDef(
        "tau(omega) == (t-theta) * omega",
        _run_eq2),
    "thm2-hI-const": CheckDef(
        "psi(2,z) == pi_tilde * u(z) * chi_1 * chi_2 + sum over proper subsets I of chi^I * c_I "
        "with every c_I constant in z  [q>=3]",
        _run_thm2, min_q=3),
    "thm3-omega-gauss": CheckDef(
        "omega at t=zeta == -ell_{d-1}(zeta) * embed(gauss_sum)",
        _run_thm3, needs_prime=True),
    "thm4-degcoeff": CheckDef(
        "prime * ev(psi(1,z)) / pi_tilde has u_prime-order exactly k0 = q^(d-1)*(q-1) with "
        "leading coefficient prime^k0 * (-1)^(d+1) * gauss_sum_inv / chi(ell_{d-1})  [|z|_im large]",
        _run_thm4, needs_prime=True),
    "lem41-genseries": CheckDef(
        "z * psi(s,z) == sum of z^n * L_multi(s,n) over n == s mod (q-1); other coefficients vanish",
        functools.partial(_genseries_samples, s_list=(1, 2))),
    "carlitz-zeta-s0": CheckDef(
        "z * psi(0,z) == 1 + sum of z^(k(q-1)) * zeta_A(k(q-1))",
        functools.partial(_genseries_samples, s_list=(0,))),
    "tau-psi1": CheckDef(
        "tau(psi(1,z)) == (pi_tilde*u)^(q-1) * (psi(1,z) - L_multi(1,1))",
        _run_tau_psi1),
    "phi-psi1": CheckDef(
        "psi(1,z) at t^q == (pi_tilde*u)^(1-q) * psi(1,z)^q + L_multi(1,1,powers=(q,))",
        _run_phi_psi1),
    "lem31-bound": CheckDef(
        "sup-norm chi(z) <= max(1, |carlitz_e(z)|^(1/q))",
        _run_lem31),
    "lem32-isometry": CheckDef(
        "sup-norm chi(z) == |z|  [|z| < q]",
        _run_lem32),
    "growth-remark": CheckDef(
        "|pi_tilde| == q^(q/(q-1)); sup-norm chi(z) == q^(-1/(q-1)) * |carlitz_e(z)|^(1/q) and "
        "|1/carlitz_e(z)| <= 1/q  [|z|_im large]",
        _run_growth),
    "prop51-ev": CheckDef(
        "ev(psi_J(z)) / pi_tilde == sum over k of u_m(z)^(k+1) * moment_k  [|z|_im large]",
        _run_prop51, needs_prime=True, allows_prime2=True),
    "cor52-chieval": CheckDef(
        "prime * ev(chi(z)) == M(carlitz_e(z / prime))  [all z]",
        _run_cor52, needs_prime=True),
    "lem53-M-oracle": CheckDef(
        "interpolation_M == M_from_gauss exactly; node values prime * character(b); "
        "support only on q-power exponents",
        _run_lem53, needs_prime=True),
    "lem55-telescope": CheckDef(
        "sum over j < d of prod_{k<j}(y - x^(q^k)) / ell_j(x) equals its single-fraction closed form",
        _run_lem55),
    "cor56-coeffs": CheckDef(
        "deg M == q^(d-1); top and linear coefficients match the inverse-Gauss-sum closed forms",
        _run_cor56, needs_prime=True),
    "ca-ej-oracle": CheckDef(
        "carlitz_poly(a) == sum of E_j(a) * Z^(q^j), exhaustively over small degrees",
        _run_ca_ej),
    "gauss-product": CheckDef(
        "gauss_sum * gauss_sum_inv == (-1)^d * prime; integral inverse; sigma_b(g) == g * b(zeta)",
        _run_gauss_product, needs_prime=True),
}


def _check_prime_coeffs(spec1, q, coeffs, what):
    if not isinstance(coeffs, tuple) or len(coeffs) < 2:
        raise ConfigError(f"{what} must list at least two coefficients")
    for c in coeffs:
        if not isinstance(c, int) or not 0 <= c < q:
            raise ConfigError(f"{what} coefficient {c!r} outside 0..{q - 1}")
    if coeffs[-1] != 1:
        raise ConfigError(f"{what} must be monic")
    d = len(coeffs) - 1
    try:
        torsion_guard(q, d)
    except SizeLimitError as err:
        raise ConfigError(f"{what}: {err}") from err
    if not spec1.poly(coeffs).is_irreducible():
        raise ConfigError(f"{what} is not irreducible over the coefficient field")


def _resolve(cfg: CheckConfig) -> _Run:
    if cfg.check not in REGISTRY:
        raise UnknownCheckError(f"unknown check {cfg.check!r}")
    if not isinstance(cfg.p, int):
        raise ConfigError(f"p must be an integer prime, got {cfg.p!r}")
    if not isinstance(cfg.e, int) or cfg.e < 1:
        raise ConfigError("e must be an integer >= 1")
    try:
        spec1 = make_field(cfg.p, cfg.e, 1)
    except CarlitzError as err:
        raise ConfigError(f"bad field parameters p={cfg.p}, e={cfg.e}: {err}") from err
    q = spec1.q
    for name, val, lo, hi in (
        ("prec", cfg.prec, 8, 400),
        ("tcap", cfg.tcap, 0, 200),
        ("degcap", cfg.degcap, 1, 200),
        ("samples", cfg.samples, 1, 200),
    ):
        if not isinstance(val, int) or not lo <= val <= hi:
            raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {val!r}")
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        raise ConfigError("seed must be an integer >= 0")
    if cfg.root_index is not None and (not isinstance(cfg.root_index, int) or cfg.root_index < 0):
        raise ConfigError("root index must be an integer >= 0")
    cd = REGISTRY[cfg.check]
    prime = cfg.prime
    prime2 = cfg.prime2 if cd.allows_prime2 else None
    if cd.needs_prime:
        if prime is None:
            prime = _default_prime(cfg.p, cfg.e)
        _check_prime_coeffs(spec1, q, prime, "prime")
        if prime2 is not None:
            _check_prime_coeffs(spec1, q, prime2, "prime2")
            if prime2 == prime:
                raise ConfigError("prime2 must differ from prime")
    else:
        prime = None
        prime2 = None
    return _Run(cfg, prime, prime2)


def _csv(coeffs):
    return None if coeffs is None else ",".join(str(c) for c in coeffs)


def _params(cfg: CheckConfig, rc: _Run) -> dict:
    return {
        "p": cfg.p, "e": cfg.e, "q": rc.q,
        "prime": _csv(rc.prime), "prime2": _csv(rc.prime2),
        "root_index": cfg.root_index,
        "prec": cfg.prec, "tcap": cfg.tcap, "degcap": cfg.degcap,
        "samples": cfg.samples, "seed": cfg.seed,
    }


def _not_applicable(rc: _Run):
    """Why the check does not apply to this configuration, or None."""
    min_q = REGISTRY[rc.cfg.check].min_q
    if rc.q < min_q:
        return f"needs q >= {min_q}, got q = {rc.q}"
    return None


def _report(rc: _Run, t0: float) -> CheckReport:
    """Run a resolved check that applies and report it, timed from t0."""
    cfg = rc.cfg
    samples, extra = REGISTRY[cfg.check].runner(rc)
    status = "pass" if all(s.status == "pass" for s in samples) else "fail"
    certs = [s.certified for s in samples if isinstance(s.certified, int)]
    overall = min(certs) if certs else "exact"
    params = _params(cfg, rc)
    for k in sorted(extra):
        params[k] = extra[k]
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CheckReport(cfg.check, params, status, overall, samples, elapsed)


def run_check(cfg: CheckConfig) -> CheckReport:
    t0 = time.perf_counter()
    rc = _resolve(cfg)
    reason = _not_applicable(rc)
    if reason is not None:
        raise ConfigError(f"{cfg.check} {reason}")
    return _report(rc, t0)


def run_all(cfg: CheckConfig):
    """Every registry check in contract order with one shared configuration,
    each resolved once.

    A check that does not apply to the configuration (q below its min_q) is
    reported as skipped, with the reason as its one sample row, and the run
    goes on.  A check that raises a CarlitzError once its configuration is
    resolved is reported with status error, the error as its one sample
    row, and the run goes on too.
    """
    reports = []
    for name in REGISTRY:
        sub = CheckConfig(**{**cfg.__dict__, "check": name})
        t0 = time.perf_counter()
        rc = _resolve(sub)
        reason = _not_applicable(rc)
        if reason is not None:
            row = SampleResult(0, reason, "skipped", "skipped", "skipped")
            reports.append(CheckReport(name, _params(sub, rc), "skipped", "skipped", [row], 0))
            continue
        try:
            reports.append(_report(rc, t0))
        except CarlitzError as err:
            row = SampleResult(0, f"{type(err).__name__}: {err}", "error", "error", "error")
            elapsed = int((time.perf_counter() - t0) * 1000)
            reports.append(CheckReport(name, _params(sub, rc), "error", "error", [row], elapsed))
    return reports
