"""Acceptance suite: one test per contract criterion, at full desk budgets.

Each test drives the public check registry (or the library directly where a
criterion asks for a computation the registry does not expose verbatim) and
asserts a pass under the declared precision-plus-tail budget.  Stated runtime
ceilings are asserted where the contract fixes them.
"""

import random

from carlitz.functions import chi_t, default_budget, pi_tilde, psi, u_val
from carlitz.laurent import Completion, sample_z
from carlitz.verify import CheckConfig, REGISTRY, run_check, _residual_sample

FULL = dict(prec=60, tcap=40, degcap=40)


def _run(name, **kw):
    rep = run_check(CheckConfig(check=name, **kw))
    bad = [(s.label, s.residual_valuation, s.detail)
           for s in rep.samples if s.status != "pass"]
    assert rep.status == "pass", f"{name} {kw}: failing samples {bad}"
    return rep


def test_period_psi_product_identity_small_z():
    for p in (2, 3):
        rep = _run("thm1-psi1", p=p, samples=5, seed=42, **FULL)
        assert rep.elapsed_ms < 60_000


def test_psi_one_factors_through_interpolation_character():
    # psi(1, z) == pi_tilde * u(z) * chi_t(z) at ten points across regimes
    regimes = ("small", "unit", "large", "imag_large")
    for p in (2, 3):
        q = p
        d = 2 if q == 2 else 1
        ctx = Completion(p, 1, d)
        B = default_budget(ctx, 60)
        pi = pi_tilde(ctx, B)
        rng = random.Random(f"9:psi1-factor:{q}")
        for i in range(10):
            z = sample_z(ctx, rng, regimes[i % 4])
            scal = pi * u_val(ctx, z, B)
            resid = psi(ctx, 1, z, 40, 40, B) - chi_t(ctx, z, 40, B).scalar_mul(scal)
            s = _residual_sample(i, f"z#{i}", resid, 60)
            assert s.status == "pass", (q, i, s)


def test_lseries_times_omega_gives_period():
    for p, e in ((2, 1), (3, 1), (2, 2)):
        _run("eq5-pelsid", p=p, e=e, **FULL)


def test_arity_two_decomposition_with_constant_coefficients():
    for p, e in ((3, 1), (2, 2)):
        rep = _run("thm2-hI-const", p=p, e=e, prec=60, tcap=24, degcap=40,
                   samples=5, seed=7)
        labels = [s.label for s in rep.samples]
        assert sum("constant across" in l for l in labels) == 3
        assert sum("decomposition" in l for l in labels) == 4


THM3_GRID = (
    (2, (0, 1)),
    (2, (1, 1, 1)),
    (2, (1, 1, 0, 1)),
    (3, (0, 1)),
    (3, (1, 0, 1)),
)


def test_omega_torsion_values_against_gauss_sums():
    total = 0
    for p, prime in THM3_GRID:
        rep = _run("thm3-omega-gauss", p=p, prime=prime, **FULL)
        assert len(rep.samples) == len(prime) - 1  # one sample per conjugate root
        total += rep.elapsed_ms
    assert total < 120_000


def test_torsion_evaluation_order_and_leading_coefficient():
    for p, prime, k0 in ((2, (1, 1, 1), 2), (3, (1, 0, 1), 6)):
        rep = _run("thm4-degcoeff", p=p, prime=prime, prec=60, tcap=24,
                   degcap=24, samples=3)
        assert rep.params["k0"] == k0
        labels = [s.label for s in rep.samples]
        assert any("order at" in l for l in labels)
        assert any("leading coefficient" in l for l in labels)


def test_interpolation_polynomial_oracle_and_closed_coefficients():
    for p, prime in THM3_GRID:
        rl = _run("lem53-M-oracle", p=p, prime=prime, prec=20, tcap=8, degcap=8)
        assert rl.residual_valuation == "exact"
        rc = _run("cor56-coeffs", p=p, prime=prime, prec=20, tcap=8, degcap=8)
        assert rc.residual_valuation == "exact"
        assert len(rc.samples) == len(prime) - 1


def test_telescoping_fraction_identity_to_depth_six():
    total = 0
    for p, e in ((2, 1), (3, 1), (2, 2)):
        rep = _run("lem55-telescope", p=p, e=e, prec=20, tcap=8, degcap=6)
        assert rep.params["depth"] == 6
        assert rep.residual_valuation == "exact"
        total += rep.elapsed_ms
    assert total < 10_000


def test_module_action_matches_basis_expansion_exhaustively():
    for p in (2, 3):
        rep = _run("ca-ej-oracle", p=p, prec=20, tcap=8, degcap=8)
        assert rep.residual_valuation == "exact"
        assert rep.params["cap"] >= 3  # covers every element of degree < 3


def test_generating_series_recovers_l_values():
    rep = _run("lem41-genseries", p=3, prec=40, tcap=16, degcap=24)
    hits = {1: set(), 2: set()}
    for s in rep.samples:
        parts = dict(t.split("=") for t in s.label.split(" ")[:2])
        sv, n = int(parts["s"]), int(parts["n"])
        if "matches L-value" in s.label and n <= sv + 2 * (3 - 1):
            # the contract rows: class members with k <= 2 carry real margin
            assert isinstance(s.certified, int) and s.certified > 0, s
            hits[sv].add(n)
    assert hits[1] == {1, 3, 5}
    assert hits[2] == {2, 4, 6}
    assert any("vanishes" in s.label for s in rep.samples)
    _run("carlitz-zeta-s0", p=3, prec=40, tcap=16, degcap=24)


def test_twisted_difference_equations_for_psi_one():
    for p in (2, 3):
        _run("tau-psi1", p=p, samples=5, **FULL)
        _run("phi-psi1", p=p, samples=5, **FULL)


def test_norm_suite_exact_comparisons():
    for p in (2, 3):
        for name in ("lem31-bound", "lem32-isometry", "growth-remark"):
            rep = _run(name, p=p, prec=40, tcap=16, degcap=16,
                       samples=50, seed=5)
            assert rep.residual_valuation == "exact"
        growth = run_check(CheckConfig(check="growth-remark", p=p, prec=40,
                                       tcap=16, degcap=16, samples=50, seed=5))
        assert "period norm" in growth.samples[0].label


def test_precision_escalation_is_monotone():
    base = dict(p=3, tcap=10, degcap=10, samples=2, seed=1)
    for name in REGISTRY:
        r1 = run_check(CheckConfig(check=name, prec=16, **base))
        r2 = run_check(CheckConfig(check=name, prec=36, **base))
        assert r1.status == "pass", name
        assert r2.status == "pass", name
        v1, v2 = r1.residual_valuation, r2.residual_valuation
        if isinstance(v1, int):
            assert isinstance(v2, int) and v2 >= v1, (name, v1, v2)
        else:
            assert v1 == v2 == "exact", (name, v1, v2)
