"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the
assertions carry the same numbers, so a red test is a failed criterion.
Criteria 04, 05, 09 and 10 run the check steps of ``cli.SCENARIOS`` on
in-test configs and read the entries they emit; the others call suites
and closed forms that no scenario config expresses.
"""

import argparse
import time

import numpy as np
import pytest

from cprojlab import cli
from cprojlab.builders import (
    PowerProfile, build_mobility2_projective, build_quotient_pair,
    jordan_pair_spec, lift_pair, mobility_spec, solve_jordan_odes,
)
from cprojlab.config import parse_config_text
from cprojlab.geometry import GridSpec, nan_max
from cprojlab.jets import Jet
from cprojlab.kahler import (
    check_kahler, commuting_gradients_residual, cproj_residual,
    mu_hat_duality_residual,
)
from cprojlab.killing import (
    a_on_k_recurrence, build_canonical_killing, killing_property_suite,
)
from cprojlab.curvspec import (
    curvature_operator_matrix, fit_nabla_lambda_poly, fppp_limit_check,
    lambda_two_eigen, r0_operator, ricci_identity_check, unitary_basis,
)
from cprojlab.flows import (
    integrate_geodesic, jplanarity_residual, tail_exponent,
    volume_coefficient,
)

from conftest import pair_complex, pair_dini, pair_ell1
from fd_oracle import fd_gradient
from vandermonde import (
    det_quotient, locate_window_endpoint, sum_over_delta,
)


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    return ok


def run_checks(text, only):
    """The report of the registry steps of scenario config ``text`` that
    can emit a name starting with a prefix in ``only``."""
    args = argparse.Namespace(seed=None)
    rep, _ = cli.run_scenario(cli.validate(parse_config_text(text), args),
                              only)
    return rep


def entries(reports, name, tol):
    """Entry ``name`` of each report, each at tolerance ``tol``."""
    out = [rep.entry(name) for rep in reports]
    assert all(e.tolerance == tol for e in out), name
    return out


# 3**6 + 64 samples stay under cli.MAX_SAMPLES on the 6-dim chart; the
# Lie, transport and volume steps draw their own points
MOBILITY = """\
scenario = mobility2
C = {C}
grid = 3

[constant_block]
c = 0.0
dim = 2

[constant_block]
c = 1.0
dim = 2
"""

# the split equations read 4 per axis + 64 random samples
JORDAN = """\
scenario = jordan
kind = {kind}
init = {init}
grid = 4
"""


@pytest.fixture(scope="module")
def mobility_runs():
    """Criteria 04 and 05 on the mobility-two chart with constant
    eigenvalues 0 and 1, by C."""
    return {C: run_checks(MOBILITY.format(C=C), (
        "lie_v", "eigenvalue_transport", "volume_coefficient"))
        for C in (-1.5, -1.0, -0.5)}


@pytest.fixture(scope="module")
def jordan_runs():
    """Criteria 09 and 10 on the 2x2 and 3x3 nilpotent blocks."""
    return {kind: run_checks(JORDAN.format(kind=kind, init=init), (
        "ode_defect", "g1_constancy", "split_lie", "blowup_exponent"))
        for kind, init in (("2x2", "0.5 0.1"), ("3x3", "0.5 0.1 0.2"))}


@pytest.fixture(scope="module")
def corpus_fields(corpus):
    """Full acceptance grids (5 per axis + 64 random), evaluated once."""
    t0 = time.monotonic()
    out = []
    for name, chart, consts in corpus:
        pts = GridSpec(per_axis=5, n_random=64, seed=0).points(
            chart.window)
        out.append((name, chart, consts, chart.eval(pts, order=2)))
    build_time = time.monotonic() - t0
    return out, build_time


def test_criterion_01_construction_soundness(corpus_fields):
    fields, build_time = corpus_fields
    t0 = time.monotonic()
    worst = 0.0
    for name, chart, consts, fl in fields:
        rk = check_kahler(fl, tol=1e-6)
        rc = cproj_residual(fl, tol=1e-6)
        worst = nan_max(worst, rk.max_value(), rc.max_value())
        assert rk.overall_pass and rc.overall_pass, name
    elapsed = (time.monotonic() - t0) + build_time
    ok = worst <= 1e-6 and elapsed <= 60.0
    assert report(1, ok,
                  f"6 instances, kahler+compat max residual "
                  f"{worst:.2e} <= 1e-6, runtime {elapsed:.1f}s <= 60s")


def test_criterion_02_killing_suite(corpus_fields):
    fields, _ = corpus_fields
    worst_suite, worst_rec = 0.0, 0.0
    for name, chart, consts, fl in fields:
        ks = build_canonical_killing(fl, consts)
        rep = killing_property_suite(ks, fl, tol=1e-6)
        assert rep.overall_pass, f"{name}:\n{rep}"
        worst_suite = nan_max(worst_suite, *(
            e.value for e in rep.entries if e.mode == "max<=tol"))
        rec = a_on_k_recurrence(ks, fl, tol=1e-7)
        assert rec.overall_pass, name
        worst_rec = nan_max(worst_rec, rec.entries[0].value)
    ok = worst_suite <= 1e-6 and worst_rec <= 1e-7
    assert report(2, ok,
                  f"canonical-field suite {worst_suite:.2e} <= 1e-6, "
                  f"recurrence {worst_rec:.2e} <= 1e-7")


def test_criterion_03_duality_identities(jordan2_sol, jordan3_sol):
    pairs = [
        build_quotient_pair(pair_ell1()),
        build_quotient_pair(pair_dini()),
        build_quotient_pair(pair_complex()),
        build_quotient_pair(mobility_spec(2, 1.0, -1.5)),
        build_quotient_pair(jordan_pair_spec(
            jordan2_sol, extra_windows=((0.55, 0.75),),
            extra_a=(1.0,), x_window=(1.2, 1.8),
            rho1_window=(0.22, 0.42))),
        build_quotient_pair(jordan_pair_spec(jordan3_sol,
                                             x_window=(1.2, 1.8))),
    ]
    worst = 0.0
    for qp in pairs:
        pts = GridSpec(per_axis=5, n_random=64, seed=0).points(qp.window)
        f = qp.eval(pts, order=2)
        worst = nan_max(worst,
                        mu_hat_duality_residual(f, tol=1e-7).entries[0].value,
                        commuting_gradients_residual(
                            f, tol=1e-7).entries[0].value)
    ok = worst <= 1e-7
    assert report(3, ok,
                  f"reciprocal-eigenvalue and commuting-gradient "
                  f"identities {worst:.2e} <= 1e-7 on 6 pairs")


def test_criterion_04_mobility_dynamics(mobility_runs):
    runs = mobility_runs.values()
    lie = (entries(runs, "lie_v_metric", 1e-6)
           + entries(runs, "lie_v_endo", 1e-6))
    # the transport step integrates rho over t in [-3, 3]
    tr = entries(runs, "eigenvalue_transport", 1e-6)
    worst_lie = nan_max(*(e.value for e in lie))
    worst_tr = nan_max(*(e.value for e in tr))
    ok = worst_lie <= 1e-6 and worst_tr <= 1e-6
    assert report(4, ok,
                  f"canonical Lie equations {worst_lie:.2e} <= 1e-6, "
                  f"logistic transport {worst_tr:.2e} <= 1e-6 over "
                  f"[-3, 3]")


def test_criterion_05_volume_coefficient(mobility_runs):
    vol = entries(mobility_runs.values(), "volume_coefficient", 1e-5)
    worst = nan_max(*(e.value for e in vol))
    # at C = -1 the predicted coefficient itself vanishes: measure |f|
    assert mobility_runs[-1.0].entry("volume_coefficient").note in (
        "predicted=0", "predicted=-0")
    chp = build_mobility2_projective(-0.5, m0=1, m1=0)
    repp = volume_coefficient(chp, tol=1e-5)
    assert repp.overall_pass
    assert "predicted=-0.25" in repp.entries[0].note
    worst = nan_max(worst, repp.entries[0].value)
    ok = worst <= 1e-5
    assert report(5, ok,
                  f"volume response constants (both variants) "
                  f"{worst:.2e} <= 1e-5; predicted -0.25 checked")


def test_criterion_06_curvature_spectra(mob_l2):
    # (i) the two-eigenvalue scalar equals an assembled operator eigenvalue
    pts = mob_l2.window.random(6, np.random.default_rng(1))
    fl = mob_l2.eval(pts, order=2)
    prof = mob_l2.qp.blocks[0].F
    worst_i = 0.0
    for s in range(4):
        lam = lambda_two_eigen(prof, fl.rhos[0].c[0][s],
                               fl.rhos[1].c[0][s])
        spec = np.linalg.eigvals(curvature_operator_matrix(fl, s)[0])
        worst_i = nan_max(worst_i, float(np.min(np.abs(spec - lam))))
    # (ii) the cubic profile gives the constant 1/4
    cubic = PowerProfile(1.0, 0.0, 3.0)
    r1 = np.linspace(0.05, 0.45, 12)
    r2 = np.linspace(0.55, 0.95, 12)
    worst_ii = float(np.max(np.abs(
        lambda_two_eigen(cubic, r1, r2) - 0.25)))
    # (iii) Richardson-extrapolated collision limit at delta = 1e-2
    quart = PowerProfile(1.0, 0.0, 4.0)
    worst_iii = nan_max(*(fppp_limit_check(p, 0.5, tol=1e-3).entries[0].value
                          for p in (prof, quart)))
    # (iv) spectral predictions: distinct eigenvalues on the geometric
    # instance, the derivative rule on a Jordan algebraic instance
    coef, _ = fit_nabla_lambda_poly(fl, sample=0)
    p = np.polynomial.Polynomial(coef)
    l1, l2 = fl.rhos[0].c[0][0], fl.rhos[1].c[0][0]
    pred = (p(l1) - p(l2)) / (l1 - l2)
    spec = np.linalg.eigvals(curvature_operator_matrix(fl, 0)[0])
    worst_iv = float(np.min(np.abs(spec - pred)))

    def realify(M):
        n = M.shape[0]
        R = np.zeros((2 * n, 2 * n))
        for i in range(n):
            for j in range(n):
                z = M[i, j]
                R[2 * i, 2 * j] = R[2 * i + 1, 2 * j + 1] = z.real
                R[2 * i, 2 * j + 1] = -z.imag
                R[2 * i + 1, 2 * j] = z.imag
        return R

    rho = 0.35
    g0 = realify(np.array([[0, 1], [1, 0]], dtype=complex))
    J0 = realify(1j * np.eye(2))
    A0 = realify(np.array([[rho, 1], [0, rho]], dtype=complex))
    coeffs = np.array([0.3, 0.8, 0.45])
    op = r0_operator(coeffs, A0)
    basis, _ = unitary_basis(g0, J0)
    k = basis.shape[0]
    Rm = np.zeros((k, k))
    for j in range(k):
        Rm[:, j] = basis.reshape(k, -1) @ op(basis[j]).ravel()
    dp = coeffs[1] + 2 * coeffs[2] * rho
    worst_iv = nan_max(worst_iv,
                       float(np.min(np.abs(np.linalg.eigvals(Rm) - dp))))
    # and geometrically: the derivative rule on a nilpotent-block pair
    sol = solve_jordan_odes("2x2", 2, -1.5, (0.5, 0.1), (0.2, 0.8))
    qp = build_quotient_pair(jordan_pair_spec(sol,
                                              x_window=(1.2, 1.8)))
    pts = qp.window.random(3, np.random.default_rng(2))
    fj = qp.eval(pts, order=2)
    for s in range(3):
        coefj, _ = fit_nabla_lambda_poly(fj, sample=s)
        dpj = np.polynomial.Polynomial(coefj).deriv()(pts[s, 1])
        eigs = np.linalg.eigvals(curvature_operator_matrix(fj, s)[0])
        worst_iv = nan_max(worst_iv, float(np.min(np.abs(eigs - dpj)))
                           / (1.0 + abs(dpj)))
    ok = (worst_i <= 1e-5 and worst_ii <= 1e-8 and worst_iii <= 1e-3
          and worst_iv <= 1e-5)
    assert report(6, ok,
                  f"two-eigenvalue scalar in spectrum {worst_i:.2e} <= "
                  f"1e-5; cubic constant 1/4 {worst_ii:.2e} <= 1e-8; "
                  f"collision limit {worst_iii:.2e} <= 1e-3; "
                  f"spectral predictions {worst_iv:.2e} <= 1e-5")


def test_criterion_07_commutator_identity(corpus_fields):
    fields, _ = corpus_fields
    worst = 0.0
    for name, chart, consts, fl in fields:
        if chart.dim >= 6:
            # curvature assembly on the big chart: restrict the samples
            pts = GridSpec(per_axis=2, n_random=32, seed=0).points(
                chart.window)
            fl = chart.eval(pts, order=2)
        rep = ricci_identity_check(fl, tol=1e-6)
        assert rep.overall_pass, name
        worst = nan_max(worst, rep.entries[0].value)
    ok = worst <= 1e-6
    assert report(7, ok,
                  f"curvature commutator identity {worst:.2e} <= 1e-6 "
                  f"over spanning wedges, all instances")


def test_criterion_08_symmetric_function_kernels():
    rng = np.random.default_rng(7)
    worst_agree = 0.0
    for ell in (2, 3):
        for _ in range(6):
            rho = np.sort(rng.uniform(-1.5, 1.5, ell))
            if np.min(np.diff(rho)) < 1e-2:
                continue
            k = lambda t: np.exp(0.6 * t) + np.cos(t)
            worst_agree = nan_max(worst_agree,
                                  abs(sum_over_delta(k, rho)
                                      - det_quotient(k, rho)))
    worst_ann = 0.0
    rho = np.array([0.13, 0.41, 0.78])
    for j in range(2):
        worst_ann = nan_max(worst_ann,
                            abs(sum_over_delta(lambda t, j=j: t ** j, rho)))
    worst_end = 0.0
    for ell in (1, 2, 3):
        make = lambda C, ell=ell: PowerProfile(1.0, C, 1.0 + ell + C)
        lower = locate_window_endpoint(make, 0.0, ell, -2.7, -1.3)
        upper = locate_window_endpoint(make, 1.0, ell,
                                       (1 - ell) - 0.7, (1 - ell) + 0.7)
        worst_end = nan_max(worst_end, abs(lower + 2.0),
                            abs(upper - (1.0 - ell)))
    ok = worst_agree <= 1e-11 and worst_ann < 1e-12 and worst_end <= 0.05
    assert report(8, ok,
                  f"sum/determinant agreement {worst_agree:.2e} <= 1e-11; "
                  f"low-degree annihilation {worst_ann:.2e} < 1e-12; "
                  f"window endpoints located to {worst_end:.3f} <= 0.05")


def test_criterion_09_blowup_certificates(jordan_runs):
    # the 2x2 scan toward F + x = 0 at the middle of the interval
    (e,) = entries([jordan_runs["2x2"]], "blowup_exponent", 0.1)
    expo = e.measured
    ok_j = e.passed and e.value == abs(expo - 3.0)
    # two eigenvalues colliding at a corner of the window
    s2 = np.geomspace(1e-1, 1e-5, 20)
    div = lambda_two_eigen(PowerProfile(1.0, -1.5, 1.5), s2, 2 * s2)
    ok_div = abs(div[-1]) > 1e3 * abs(div[0]) and \
        abs(tail_exponent(s2, div)) > 0.5
    worst_var = 0.0
    for C in (0.0, -1.0, -2.0, -3.0):
        prof = PowerProfile(1.0, C, 3.0 + C)
        # evaluate at the corner where the profile vanishes so the
        # difference quotient stays conditioned
        vals = (lambda_two_eigen(prof, 1 - 2 * s2, 1 - s2) if C == -3.0
                else lambda_two_eigen(prof, s2, 2 * s2))
        worst_var = nan_max(worst_var,
                            float(np.max(np.abs(vals[-8:] - vals[-8]))))
    ok = ok_j and ok_div and worst_var <= 1e-3
    assert report(9, ok,
                  f"nilpotent-block exponent {expo:.3f} within 3 +- 0.1; "
                  f"fractional-profile corner divergence certified; "
                  f"bounded cases vary {worst_var:.2e} <= 1e-3")


def test_criterion_10_block_ode_solutions(jordan_runs):
    runs = jordan_runs.values()
    ode = entries(runs, "ode_defect", 1e-9)
    (g1,) = entries([jordan_runs["3x3"]], "g1_constancy", 1e-12)
    # split Lie equations on the pure blocks
    split = (entries(runs, "split_lie_endo", 1e-6)
             + entries(runs, "split_lie_metric", 1e-6))
    d2, d3 = (e.value for e in ode)
    worst_split = nan_max(*(e.value for e in split))
    # the scalar analogue against its closed form
    n2, C = 2, -0.7
    sol1 = solve_jordan_odes("1x1", n2, C, (0.4,), (0.2, 0.8))
    a = 0.4 / PowerProfile(1.0, C, n2 + 2 + C)(0.5)
    closed = PowerProfile(a, C, n2 + 2 + C)
    ts = np.linspace(0.21, 0.79, 100)
    sol1_err = float(np.max(np.abs(sol1(ts) - closed(ts))))
    ok = (d2 <= 1e-9 and d3 <= 1e-9 and g1.value <= 1e-12
          and worst_split <= 1e-6 and sol1_err <= 1e-9)
    assert report(10, ok,
                  f"ODE defects {max(d2, d3):.2e} <= 1e-9; constant "
                  f"component drift {g1.value:.2e} <= 1e-12; split equations "
                  f"{worst_split:.2e} <= 1e-6; scalar closed form "
                  f"{sol1_err:.2e} <= 1e-9")


def test_criterion_11_planarity_transfer():
    qp = build_quotient_pair(pair_dini())
    chart = lift_pair(qp, route="jacobian")
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(3):
        v0 = rng.normal(size=4)
        v0 = 0.6 * v0 / np.linalg.norm(v0)
        traj = integrate_geodesic(chart, chart.window.center(), v0,
                                  T=1.0, tol=1e-9)
        worst = nan_max(worst,
                        jplanarity_residual(traj, chart, metric="partner"))
    ok = worst <= 1e-5
    assert report(11, ok,
                  f"geodesics stay complex-planar for the partner "
                  f"metric: residual {worst:.2e} <= 1e-5 on t in [0,1]")


def test_criterion_12_oracle_equivalence():
    rng = np.random.default_rng(21)
    worst_slope = np.inf
    tried = kept = 0
    while kept < 20 and tried < 60:
        tried += 1
        dim = int(rng.integers(1, 4))
        c = rng.uniform(-0.8, 0.8, size=6)
        pt = rng.uniform(-0.7, 0.7, size=(1, dim))

        def f_np(x, c=c):
            a, b = x[..., 0], x[..., -1]
            return (c[0] * a * b + np.sin(c[1] * a + 0.2)
                    * np.cos(c[2] * b) + np.exp(c[3] * a - c[4] * b)
                    + np.sqrt(0.2 * (a * a + b * b) + 1.1) + c[5] * a)

        jets = [Jet.seed(i, pt[:, i], dim, 1) for i in range(dim)]
        a, b = jets[0], jets[-1]
        fj = (c[0] * a * b + (c[1] * a + 0.2).sin() * (c[2] * b).cos()
              + (c[3] * a - c[4] * b).exp()
              + (0.2 * (a * a + b * b) + 1.1).sqrt() + c[5] * a)
        errs = []
        steps = (4e-3, 2e-3, 1e-3)
        for h in steps:
            errs.append(np.max(np.abs(fd_gradient(f_np, pt, h)
                                      - fj.c[1])))
        if min(errs) < 1e-13:       # no measurable truncation error
            continue
        kept += 1
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        worst_slope = min(worst_slope, slope)
    assert kept == 20
    ok = worst_slope >= 1.9
    assert report(12, ok,
                  f"central-difference oracle converges to the jet "
                  f"derivatives at order {worst_slope:.2f} >= 2 (-0.1 "
                  f"measurement slack) on 20 random composites")
