import argparse
import copy
import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from cprojlab import builders, cli
from cprojlab.config import parse_config
from cprojlab.builders import (
    BuilderError, CompatiblePairSpec, Complex2D, ConstantBlock, Jordan2,
    Jordan3, PowerProfile, QuotientPair, Real1D, build_main_example,
    build_mobility2, build_mobility2_projective, build_quotient_pair,
    esp_jets, jordan_pair_spec, lift_pair, mobility_field, mobility_rhs,
    mobility_spec, shift_endo, solve_jordan_odes,
)
from cprojlab.geometry import (
    christoffel, lie_endo, lie_metric, max_abs, metric_inverse, riemann,
)
from cprojlab.flows import lie_residual_suite, split_lie_suite
from cprojlab.jets import Jet, JetError, jet_einsum, jet_matmul, jet_trace
from cprojlab.kahler import check_kahler, cproj_residual, proj_residual

from conftest import (
    christoffel_rows, derived_keys, pair_complex, pair_dini, pair_ell1,
    same_bytes, sample,
)
from fd_oracle import fd_gradient


def test_dini_quotient_pair_form(qp_dini):
    pts = sample(qp_dini, 10)
    f = qp_dini.eval(pts, order=1)
    rho1, rho2 = pts[:, 0], 2.0 + pts[:, 1]
    # h = diag((rho1-rho2), (rho2-rho1)) up to the eps ordering sign
    assert np.allclose(f.g.c[0][:, 0, 0], rho1 - rho2)
    assert np.allclose(f.g.c[0][:, 1, 1], rho2 - rho1)
    assert np.allclose(f.A.c[0][:, 0, 0], rho1)
    assert np.allclose(f.A.c[0][:, 1, 1], rho2)
    assert proj_residual(f).entries[0].value <= 1e-8


def test_one_variable_pair(qp_ell1):
    f = qp_ell1.eval(sample(qp_ell1, 10), order=2)
    assert proj_residual(f).entries[0].value <= 1e-12


def test_eigenvalue_collision_rejected():
    spec = CompatiblePairSpec(
        (Real1D(1, (0.0, 1.0), (0.2, 0.8)),
         Real1D(1, (0.5, 1.0), (0.2, 0.8))), name="collide")
    with pytest.raises(BuilderError, match="collision"):
        build_quotient_pair(spec)


def test_lift_omega_is_exact_constant_for_linear_rho():
    spec = CompatiblePairSpec((Real1D(1, (0.0, 1.0), (0.2, 0.8)),),
                              name="lin")
    qp = build_quotient_pair(spec)
    ch = lift_pair(qp, route="jacobian")
    f = ch.eval(sample(ch, 10), order=1)
    # omega = d(mu_1) ^ dt_1 = dx ^ dt exactly
    w = f.omega.c[0]
    expect = np.zeros_like(w)
    expect[:, 1, 0] = 1.0
    expect[:, 0, 1] = -1.0
    assert max_abs(w - expect) <= 1e-14


def test_lift_eigenvalues_doubled(qp_dini):
    ch = lift_pair(qp_dini, route="jacobian")
    pts = sample(ch, 12)
    f = ch.eval(pts, order=0)
    eigs = np.sort(np.linalg.eigvals(f.A.c[0]).real, axis=1)
    rho = np.sort(np.stack([pts[:, 2], 2.0 + pts[:, 3]], axis=1), axis=1)
    expect = np.sort(np.repeat(rho, 2, axis=1), axis=1)
    assert max_abs(eigs - expect) <= 1e-9


def test_flat_factor_block_of_J_is_the_product_rule_bytes(corpus):
    # J's (t, y) block is -alpha J_c; each coefficient of alpha contracted
    # with the constant J_c gives the bytes of the Leibniz rule over a
    # constant jet, signed zeros included
    charts = [(name, ch) for name, ch, _ in corpus
              if ch.ydim and ch.route == "explicit"]
    assert [name for name, _ in charts] == ["ell1-cb0", "ell1-cb1",
                                            "mobility2"]
    for name, ch in charts:
        pts = sample(ch, 12)
        n, t, y = len(pts), ch.t_sl, ch.y_sl
        for order in (0, 1, 2, 3):
            J = ch.eval(pts, order=order).J
            Jc = Jet.const(np.broadcast_to(ch._Jc, (n,) + ch._Jc.shape),
                           ch.dim, order)
            oracle = -jet_einsum("niq,nqp->nip", ch._alpha(pts, order), Jc)
            for k in range(order + 1):
                assert same_bytes(J.c[k][:, t, y], oracle.c[k]), \
                    (name, order, k)


def test_routes_agree_on_all_pair_kinds(qp_ell1, qp_dini, qp_complex):
    cb = (ConstantBlock(0.0, 2),)
    z = Complex2D((0j, 1.0 + 0j), ((0.2, 0.8), (0.2, 0.8)))
    x = Real1D(1, (3.0, 1.0), (0.2, 0.8))
    x2 = Real1D(-1, (-2.0, 0.5), (0.2, 0.8))
    # a complex block owns two roots, so the blocks after it must still
    # read their own
    mixed = [build_quotient_pair(CompatiblePairSpec(b))
             for b in ((z, x), (x, z), (x, z, x2))]
    # constant factors: two chi weights, a negative signature, and the y
    # block next to a complex pair
    cases = [(qp_ell1, ()), (qp_dini, ()), (qp_ell1, cb),
             (qp_ell1, (ConstantBlock(0.0, 2), ConstantBlock(1.0, 2, (-1,)))),
             (qp_ell1, (ConstantBlock(0.0, 4, (1, -1)),)),
             (qp_complex, (ConstantBlock(2.0, 2),))]
    for qp, blocks in cases + [(qp, ()) for qp in mixed]:
        cha = lift_pair(qp, blocks, route="jacobian")
        chb = lift_pair(qp, blocks, route="explicit")
        pts = sample(cha, 15)
        fa, fb = cha.eval(pts, 2), chb.eval(pts, 2)
        for nm in ("g", "omega", "J", "A"):
            a, b = getattr(fa, nm), getattr(fb, nm)
            assert a.order == b.order, nm
            for k in range(a.order + 1):
                assert a.c[k].dtype == b.c[k].dtype == np.float64, (nm, k)
                assert max_abs(a.c[k] - b.c[k]) <= 1e-10, (nm, k)


@pytest.mark.parametrize("route", ["jacobian", "explicit"])
def test_omega_is_one_order_below_the_metric(qp_dini, route):
    # d omega is the one derivative of omega a check reads; g and J keep
    # the evaluation's order, and a lower order's coefficients are the
    # bytes of the order-2 evaluation's
    chart = lift_pair(qp_dini, (ConstantBlock(0.0, 2),), route=route)
    pts = sample(chart, 12)
    top = chart.eval(pts, 2)
    for k in range(3):
        f = chart.eval(pts, k)
        assert f.omega.order == max(k - 1, 0)
        assert f.g.order == f.J.order == k
        for got, want in ((f.g, top.g), (f.g, chart.metric(pts, k)),
                          (f.J, top.J), (f.omega, top.omega)):
            assert all(same_bytes(a, b) for a, b in zip(got.c, want.c))


def test_cb_empty_identical_to_plain_lift(qp_ell1):
    cha = lift_pair(qp_ell1, (), route="explicit")
    chb = lift_pair(qp_ell1, cb=(), route="explicit")
    pts = sample(cha, 8)
    fa, fb = cha.eval(pts, 2), chb.eval(pts, 2)
    assert max_abs(fa.g.c[0] - fb.g.c[0]) == 0.0


def test_constant_block_eigenvalues(qp_ell1):
    ch = lift_pair(qp_ell1, (ConstantBlock(1.0, 2),), route="explicit")
    pts = sample(ch, 10)
    f = ch.eval(pts, order=0)
    eigs = np.sort(np.linalg.eigvals(f.A.c[0]).real, axis=1)
    rho = f.rhos[0].c[0]
    expect = np.sort(np.stack([rho, rho, np.ones_like(rho),
                               np.ones_like(rho)], axis=1), axis=1)
    assert max_abs(eigs - expect) <= 1e-9


def test_constant_block_overlapping_range_rejected(qp_ell1):
    # rho ranges over about (0.316, 1.156): c = 0.5 collides
    with pytest.raises(BuilderError, match="constant eigenvalue"):
        lift_pair(qp_ell1, (ConstantBlock(0.5, 2),), route="explicit")


def test_main_example_matches_lift_routes(qp_dini):
    chart = build_main_example(pair_dini())
    alt = lift_pair(qp_dini, route="jacobian")
    pts = sample(chart, 12)
    fa, fb = chart.eval(pts, 1), alt.eval(pts, 1)
    for nm in ("g", "omega", "J", "A"):
        assert max_abs(getattr(fa, nm).c[0]
                       - getattr(fb, nm).c[0]) <= 1e-9, nm


def test_main_example_with_block_matches_jacobian_route(qp_ell1):
    cb = (ConstantBlock(1.0, 2),)
    chart = build_main_example(pair_ell1(), cb=cb)
    alt = lift_pair(qp_ell1, cb, route="jacobian")
    pts = sample(chart, 12)
    fa, fb = chart.eval(pts, 1), alt.eval(pts, 1)
    for nm in ("g", "omega", "J", "A"):
        assert max_abs(getattr(fa, nm).c[0]
                       - getattr(fb, nm).c[0]) <= 1e-9, nm


def test_complex_pair_chart():
    chart = build_main_example(pair_complex())
    fl = chart.eval(sample(chart, 25), order=2)
    assert check_kahler(fl).max_value() <= 1e-6
    assert cproj_residual(fl).entries[0].value <= 1e-6


def test_killing_block_encodes_recurrence(qp_dini):
    # the Killing-direction block of A has the mu / shift structure
    ch = lift_pair(qp_dini, route="jacobian")
    pts = sample(ch, 10)
    f = ch.eval(pts, order=0)
    T = f.A.c[0][:, :2, :2]
    mus = [m.c[0] for m in f.mus]
    assert np.allclose(T[:, 0, 0], mus[1])
    assert np.allclose(T[:, 0, 1], mus[2])
    assert np.allclose(T[:, 1, 0], -1.0)
    assert np.allclose(T[:, 1, 1], 0.0)


def test_mobility_final_metric_form():
    # C = -1 with profile a = -4B reproduces F = -4B(1-rho)rho
    B = 0.7
    ch = build_mobility2(1, -4.0 * B, -1.0,
                         cb=(ConstantBlock(0.0, 2), ConstantBlock(1.0, 2)))
    pts = sample(ch, 15)
    pts[:, 2:] = 0.0        # the theta^2 cross terms vanish at y = 0
    fl = ch.eval(pts, order=0)
    rho = pts[:, 1]
    F = -4.0 * B * (1.0 - rho) * rho
    assert np.allclose(fl.g.c[0][:, 1, 1], 1.0 / F)       # leaf block
    assert np.allclose(fl.g.c[0][:, 0, 0], F)             # Killing block
    # constant factor carries (A_c - rho) weights
    assert np.allclose(fl.g.c[0][:, 2, 2], -rho)
    assert np.allclose(fl.g.c[0][:, 4, 4], 1.0 - rho)


def test_mobility_v_certified(mob_l2):
    charts = [build_mobility2(1, 1.0, C, cb=(ConstantBlock(0.0, 2),
                                             ConstantBlock(1.0, 2)))
              for C in (-1.5, -1.0, -0.5)]
    for ch in charts + [mob_l2]:
        pts = sample(ch, 25)
        fl, v = ch.eval(pts, order=1), ch.v_field(pts, order=1)
        rhs_g, rhs_A = mobility_rhs(fl, ch.meta["C"])
        assert max_abs(lie_metric(fl.g, v) - rhs_g) \
            / (1 + max_abs(rhs_g)) <= 1e-10
        assert max_abs(lie_endo(fl.A, v) - rhs_A) \
            / (1 + max_abs(rhs_A)) <= 1e-10


def _design_by_columns(flds, pts, support):
    """The least-squares design matrix one column at a time: entry (i, j)
    is L_v g and L_v A of the field with M = E_ij and no leaf term."""
    n, d = pts.shape
    cols = []
    for i, j in np.argwhere(support):
        E = np.zeros((d, 1 + d))
        E[i, j] = 1.0
        v = mobility_field(pts, 1, E, [])
        cols.append(np.concatenate(
            [lie_metric(flds.g, v).reshape(n, -1),
             lie_endo(flds.A, v).reshape(n, -1)], axis=1).ravel())
    return np.stack(cols, axis=1)


def _fit_support(chart):
    """The entries of M a least-squares fit solves for: a t row's t and y
    columns, a y row's constant and y columns."""
    t, y = chart.t_sl, chart.y_sl
    y_cols = slice(1 + y.start, 1 + y.stop)
    mask = np.zeros((chart.dim, 1 + chart.dim), dtype=bool)
    mask[t, 1 + t.start:1 + t.stop] = mask[t, y_cols] = True
    mask[y, 0] = mask[y, y_cols] = True
    return mask


def _least_squares_field(chart):
    """M solved from L_v g and L_v A at 200 samples: the design matrix by
    columns, and the target the right-hand side minus the leaf term's
    Lie derivatives."""
    pts = chart.window.random(200, np.random.default_rng(7))
    n, d = pts.shape
    flds = chart.eval(pts, order=1)

    def flat(g_part, A_part):
        return np.concatenate([g_part.reshape(n, -1), A_part.reshape(n, -1)],
                              axis=1).ravel()

    leaf = mobility_field(pts, 1, np.zeros((d, 1 + d)), chart.rho_idx)
    target = flat(*mobility_rhs(flds, chart.meta["C"])) \
        - flat(lie_metric(flds.g, leaf), lie_endo(flds.A, leaf))
    support = _fit_support(chart)
    coeffs, *_ = np.linalg.lstsq(_design_by_columns(flds, pts, support),
                                 target, rcond=None)
    M = np.zeros((d, 1 + d))
    M[support] = coeffs
    return M, support


_CB_SETS = {
    "flat": (),
    "c0c1": (ConstantBlock(0.0, 2), ConstantBlock(1.0, 2)),
    "c1neg": (ConstantBlock(1.0, 2, (-1,)),),
}
_CS = (-3.0, -1.0, -0.5, 2.5)
# each ell beside each constant-block set at two values of C, the second
# of every other pair at a = 0.3; then three projective charts
_ORACLE_CHARTS = {
    **{f"ell{ell}-{cbn}-C{C:g}-a{a:g}":
       (lambda ell=ell, a=a, C=C, cb=cb: build_mobility2(ell, a, C, cb=cb))
       for k, (ell, (cbn, cb)) in enumerate(
           itertools.product((1, 2, 3), _CB_SETS.items()))
       for C, a in ((_CS[k % 4], 1.0),
                    (_CS[(k + 2) % 4], 0.3 if k % 2 else 1.0))},
    **{f"proj-C{C:g}-m{m0}{m1}":
       (lambda C=C, m0=m0, m1=m1: build_mobility2_projective(C, m0, m1))
       for C, m0, m1 in ((-1.5, 2, 1), (-0.5, 1, 1), (0.7, 0, 2))},
}


@pytest.mark.parametrize("build", _ORACLE_CHARTS.values(),
                         ids=_ORACLE_CHARTS.keys())
def test_closed_form_mobility_field_is_the_least_squares_solution(build):
    chart = build()
    M, support = _least_squares_field(chart)
    assert max_abs(chart.v_matrix - M) <= 1e-10
    assert not chart.v_matrix[~support].any()


def test_building_a_mobility_chart_evaluates_nothing(monkeypatch):
    calls = []
    for cls in (builders.KahlerChart, builders.ProjectiveMobilityChart):
        for name in ("eval", "metric"):
            monkeypatch.setattr(cls, name,
                                lambda self, *a, _n=name, **kw:
                                calls.append(_n))
    build_mobility2(2, 1.0, -1.5, cb=(ConstantBlock(0.0, 2),
                                      ConstantBlock(1.0, 2)))
    build_mobility2_projective(-1.5, m0=2, m1=1)
    assert calls == []


@pytest.mark.parametrize("C", [-1.5, -0.5, 0.7])
def test_projective_chart_without_a_flat_factor_builds(C):
    # v is the leaf term alone
    ch = build_mobility2_projective(C, m0=0, m1=0)
    assert ch.dim == 1 and not ch.v_matrix.any()
    for e in lie_residual_suite(ch).entries:
        assert e.value <= 1e-14, e.name


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_mobility_windows_are_disjoint_inside_the_unit_interval(ell):
    # the window rule of ell >= 3, up to the largest ell a mobility2
    # config takes
    spec = mobility_spec(ell, 1.0, -1.0)
    windows = [b.window for b in spec.blocks]
    assert len(windows) == ell
    assert 0.0 < windows[0][0]
    assert all(lo < hi < nxt for (lo, hi), (nxt, _) in
               zip(windows, windows[1:] + [(1.0, None)]))
    QuotientPair(spec)


def test_mobility_v_known_coefficients():
    # ell = 1: v = rho(1-rho) d_rho - (1+C) t d_t - (1+C)/2 y d_y
    C = -0.5
    ch = build_mobility2(1, 1.0, C, cb=(ConstantBlock(0.0, 2),))
    M = ch.v_matrix
    t0 = ch.t_sl.start
    assert abs(M[t0, 1 + t0] + (1 + C)) <= 1e-12
    for yq in range(ch.y_sl.start, ch.y_sl.stop):
        assert abs(M[yq, 1 + yq] + (1 + C) / 2) <= 1e-12
    # ell = 2, 3: t_i takes -(i+1+C) t_i - i t_(i-1); y of c = 0 takes
    # -(C+ell)/2 y and y of c = 1 takes -(C+1)/2 y
    C = 0.7
    for ell in (2, 3):
        ch = build_mobility2(ell, 1.0, C, cb=(ConstantBlock(0.0, 2),
                                              ConstantBlock(1.0, 2)))
        M = ch.v_matrix
        assert M[0, 1] == -(1 + C)
        assert M[1, 1] == -1 and M[1, 2] == -(2 + C)
        if ell == 3:
            assert M[2, 2] == -2 and M[2, 3] == -(3 + C)
        y0, y1 = ch.y_sl.start, ch.y_sl.start + 2
        assert M[y0, 1 + y0] == M[y0 + 1, 2 + y0] == -(C + ell) / 2
        assert M[y1, 1 + y1] == M[y1 + 1, 2 + y1] == -(C + 1) / 2
        assert np.count_nonzero(M) == 2 * ell - 1 + 4


@pytest.mark.parametrize("build", [
    lambda: build_mobility2(1, 1.0, -0.5, cb=(ConstantBlock(0.0, 2),
                                              ConstantBlock(1.0, 2))),
    lambda: build_mobility2_projective(-1.5, m0=2, m1=1),
], ids=["kahler", "projective"])
def test_mobility_v_closed_form_jet(build):
    ch = build()
    pts = sample(ch, 12)
    v = ch.v_field(pts, order=2)
    value = lambda x: ch.v_field(x, order=0).c[0]
    grad = lambda x: ch.v_field(x, order=1).c[1]
    assert np.allclose(v.c[0], value(pts), rtol=0, atol=1e-15)
    assert max_abs(v.c[1] - fd_gradient(value, pts)) <= 1e-9
    assert max_abs(v.c[2] - fd_gradient(grad, pts)) <= 1e-9
    assert not ch.v_field(pts, order=3).c[3].any()


def test_mobility_projective_variant():
    ch = build_mobility2_projective(-0.5, m0=1, m1=0)
    fl = ch.eval(sample(ch, 20), order=2)
    assert proj_residual(fl).entries[0].value <= 1e-10


def test_jordan_ode_residuals(jordan2_sol, jordan3_sol):
    assert jordan2_sol.defect() <= 1e-9
    assert jordan3_sol.defect() <= 1e-9
    assert jordan3_sol.g1_constancy() <= 1e-12


def test_jordan_1x1_closed_form():
    n2, C = 2, -0.7
    sol = solve_jordan_odes("1x1", n2, C, (0.4,), (0.2, 0.8))
    expo = n2 + 2 + C
    a = 0.4 / PowerProfile(1.0, C, expo)(0.5)
    closed = PowerProfile(a, C, expo)
    ts = np.linspace(0.21, 0.79, 80)
    assert np.max(np.abs(sol(ts) - closed(ts))) <= 1e-9


def test_jordan_interval_validation():
    with pytest.raises(BuilderError, match="inside"):
        solve_jordan_odes("2x2", 2, -1.5, (0.5, 0.1), (0.0, 0.8))


def test_jordan_pairs_compatible(qp_jordan2, qp_jordan3):
    for qp in (qp_jordan2, qp_jordan3):
        f = qp.eval(sample(qp, 25), order=2)
        assert proj_residual(f).entries[0].value <= 1e-7


def _pure_block_fields(qp):
    # the first block of the spec alone
    pure = build_quotient_pair(CompatiblePairSpec((qp.blocks[0],),
                                                  name="pure"))
    return pure.eval(sample(pure, 25), order=1)


def test_jordan_split_lie_equations(qp_jordan2, qp_jordan3, jordan2_sol,
                                    jordan3_sol):
    for qp, sol in ((qp_jordan2, jordan2_sol), (qp_jordan3, jordan3_sol)):
        rep = split_lie_suite(_pure_block_fields(qp), sol.n2, sol.C,
                              tol=1e-7)
        assert rep.overall_pass, rep.entries


@pytest.mark.parametrize("field", ["A", "v"])
@pytest.mark.parametrize("size", [2, 3])
def test_split_lie_suite_fails_on_a_perturbed_block(request, size, field):
    # L + 1e-3 Id, or (1 + 1e-3) v, breaks both split equations
    qp = request.getfixturevalue(f"qp_jordan{size}")
    sol = request.getfixturevalue(f"jordan{size}_sol")
    f = _pure_block_fields(qp)
    old = getattr(f, field)
    if field == "A":
        coeffs = [old.c[0] + 1e-3 * np.eye(size), *old.c[1:]]
    else:
        coeffs = [(1.0 + 1e-3) * c for c in old.c]
    bad = dataclasses.replace(f, **{field: Jet(old.dim, old.order, coeffs)})
    assert split_lie_suite(f, sol.n2, sol.C, tol=1e-7).overall_pass
    rep = split_lie_suite(bad, sol.n2, sol.C, tol=1e-7)
    assert [e.passed for e in rep.entries] == [False, False], rep.entries


def test_jordan_fx_vanishing_rejected(jordan2_sol):
    # the normal form needs F + x != 0; F ranges over roughly
    # (0.14, 1.23) on (0.2, 0.8), so x around -0.6 crosses zero
    with pytest.raises(BuilderError, match="F \\+ x"):
        build_quotient_pair(CompatiblePairSpec(
            (jordan_pair_spec(jordan2_sol,
                              x_window=(-0.8, -0.4)).blocks), name="bad"))


def test_jordan_pair_spec_takes_the_block_kind_from_the_solution(
        jordan2_sol, jordan3_sol):
    for sol, block in ((jordan2_sol, Jordan2), (jordan3_sol, Jordan3)):
        (b,) = jordan_pair_spec(sol, x_window=(1.2, 1.8)).blocks
        assert type(b) is block and b.F is sol
    sol1 = solve_jordan_odes("1x1", 2, -1.5, (0.5,), (0.2, 0.8))
    with pytest.raises(BuilderError, match="2x2 or 3x3"):
        jordan_pair_spec(sol1)


@pytest.mark.parametrize("build,match", [
    (lambda f: lift_pair(f("qp_jordan2"), route="jacobian"), "do not lift"),
    (lambda f: build_quotient_pair(jordan_pair_spec(
        f("jordan3_sol"), x_window=(-0.8, -0.2))), "F \\+ 2 x2 vanishes"),
    (lambda f: lift_pair(build_quotient_pair(CompatiblePairSpec((Complex2D(
        (1j, 0.0, 1.0), ((-0.2, 0.2), (-0.2, 0.2))),))), route="jacobian"),
     "rho' of a Complex2D block vanishes"),
    (lambda f: lift_pair(f("qp_ell1"), (ConstantBlock(0.0, 2),
                                        ConstantBlock(1e-8, 2)),
                         route="jacobian"),
     "closer than"),
], ids=["jordan-lift", "jordan3-window", "complex-flat-rho",
        "close-constants"])
def test_unbuildable_instances_are_refused(request, build, match):
    with pytest.raises(BuilderError, match=match):
        build(request.getfixturevalue)


@pytest.mark.parametrize("r,refused", [(0.8 - 1e-6, True),
                                       (0.8 + 1e-6, False)])
def test_cubic_rho_is_refused_when_rho_prime_vanishes_in_its_window(
        r, refused):
    # rho' = x^2 - r^2 vanishes at x = r, just inside or just outside the
    # window's upper end
    spec = CompatiblePairSpec((Real1D(1, (0.0, -r * r, 0.0, 1.0 / 3.0),
                                      (0.2, 0.8)),))
    qp = build_quotient_pair(spec)
    if refused:
        with pytest.raises(BuilderError, match=(
                "rho' of a Real1D block vanishes on its window "
                r"\(0.2, 0.8\), so its lift is degenerate")):
            lift_pair(qp, route="explicit")
    else:
        assert lift_pair(qp, route="explicit").dim == 2


def _spec_blocks():
    """Every polynomial block of the shipped and test configs and of the
    benchmark corpus."""
    root = Path(__file__).resolve().parent.parent
    args = argparse.Namespace(seed=None)
    blocks = []
    for path in sorted(root.glob("configs/*.cfg")) + sorted(
            root.glob("tests/configs/*.cfg")):
        v = cli.validate(parse_config(path), args)
        if "block" in v:
            blocks += cli._pair_spec(v).blocks
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(root / "perfbench"))
    return blocks + [b for spec in workloads._pairs() for b in spec.blocks]


def test_root_values_equal_numpy_polynomial_polyval_bitwise():
    blocks = _spec_blocks()
    assert {type(b) for b in blocks} == {Real1D, Complex2D}
    for b in blocks:
        if isinstance(b, Real1D):
            x = np.linspace(*b.window, builders.ROOT_SAMPLES)
        else:
            (xl, xh), (yl, yh) = b.window
            k = int(np.sqrt(builders.ROOT_SAMPLES)) + 1
            X, Y = np.meshgrid(np.linspace(xl, xh, k),
                               np.linspace(yl, yh, k))
            x = (X + 1j * Y).ravel()
        want = P.polyval(x, b.rho)
        got = b.root_values()
        assert got[0].dtype == want.dtype
        assert got[0].tobytes() == want.tobytes(), (b.rho, b.window)
        if isinstance(b, Complex2D):
            assert got[1].tobytes() == np.conj(want).tobytes()


def test_esp_jets_values():
    vals = [Jet.const(np.array([2.0]), 1, 0),
            Jet.const(np.array([3.0]), 1, 0),
            Jet.const(np.array([5.0]), 1, 0)]
    e = esp_jets(vals, 1, 0, (1,))
    assert [float(x.c[0][0]) for x in e] == [1.0, 10.0, 31.0, 30.0]
    # no values: e_0 = 1 over the whole batch
    (e0,) = esp_jets([], 6, 2, (4,))
    assert [c.shape for c in e0.c] == [(4,), (4, 6), (4, 6, 6)]
    assert np.all(e0.c[0] == 1.0)


@pytest.mark.parametrize("n,products", [(2, 1), (3, 3), (4, 6)])
def test_esp_jets_multiplies_only_nonzero_levels(monkeypatch, n, products):
    # folding in value i touches e_1..e_(i+1) only, and no product has a
    # constant factor (e_0 = 1 or a zero level): n(n-1)/2 products
    count = []
    orig = Jet.__mul__

    def counted(self, other):
        count.append(1)
        return orig(self, other)

    vals = [Jet.seed(0, np.linspace(1.0, 2.0, 5) + k, 2, 2)
            for k in range(n)]
    monkeypatch.setattr(Jet, "__mul__", counted)
    e = esp_jets(vals, 2, 2, (5,))
    monkeypatch.undo()
    assert len(count) == products
    x = np.linspace(1.0, 2.0, 5)
    assert np.allclose(e[n].c[0], np.prod([x + k for k in range(n)], axis=0))


def _esp_dense(vals, dim, order, shape, upto):
    """The dense recurrence from e = (1, 0, ..., 0): every value runs
    through e_k += v e_(k-1) for each level k it can reach, the constant
    levels included.  The reference ``esp_jets`` must equal."""
    e = [Jet.const(np.ones(shape), dim, order)]
    e += [Jet.const(np.zeros(shape), dim, order) for _ in range(upto)]
    for i, v in enumerate(vals):
        for k in range(min(upto, i + 1), 0, -1):
            e[k] = e[k] + v * e[k - 1]
    return e


@given(cplx=st.lists(st.booleans(), max_size=5), data=st.data(),
       dim=st.integers(1, 3), order=st.integers(0, 3), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_esp_jets_equals_the_dense_recurrence(cplx, data, dim, order, n,
                                              seed):
    # values real or complex, each its own kind, with nonzero coefficients:
    # equal bit for bit, dtype and shape included (a -0.0 coefficient
    # would differ only in its sign, which the reference's 0 + x drops)
    upto = data.draw(st.integers(0, len(cplx)), label="upto")
    rng = np.random.default_rng(seed)

    def coeff(shape, c):
        a = rng.normal(size=shape)
        return a + 1j * rng.normal(size=shape) if c else a

    vals = [Jet(dim, order, [coeff((n,) + (dim,) * k, c)
                             for k in range(order + 1)]) for c in cplx]
    got = esp_jets(vals, dim, order, (n,), upto=upto)
    want = _esp_dense(vals, dim, order, (n,), upto)
    assert len(got) == len(want) == upto + 1
    for g, w in zip(got, want):
        assert (g.dim, g.order) == (w.dim, w.order)
        for a, b in zip(g.c, w.c, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _char_poly_by_products(A, J):
    """The characteristic polynomial from the full-order powers of A,
    the reference: A^k as a jet at A's order, then tr A^k and
    tr(J A^k), then Newton's identities, as ``complex_char_poly`` is
    specified."""
    ncx = A.c[0].shape[-1] // 2
    Ak, ps = A, []
    for k in range(1, ncx + 1):
        tr = jet_trace(Ak)
        trJ = jet_einsum("nij,nji->n", J, Ak)
        ps.append((tr - 1j * trJ) * 0.5)
        if k < ncx:
            Ak = jet_matmul(Ak, A)
    e = [Jet.const(np.ones(A.c[0].shape[0], dtype=complex), A.dim, A.order)]
    for k in range(1, ncx + 1):
        acc = None
        for i in range(1, k + 1):
            term = ps[i - 1] if i == k else e[k - i] * ps[i - 1]
            term = term * ((-1.0) ** (i - 1))
            acc = term if acc is None else acc + term
        e.append(acc * (1.0 / k))
    return e


def _assert_char_poly_matches_products(A, J, label):
    """``complex_char_poly`` equals the reference within 1e-13 of each
    e_k's scale, and each e_k Hessian is symmetric within the same.  The
    scale of e_k is the larger of its own size and a^k, a the size of A:
    an e_k that vanishes (a zero eigenvalue) is a sum of products that
    cancel, and rounds on their scale."""
    got = builders.complex_char_poly(A, J)
    want = _char_poly_by_products(A, J)
    assert len(got) == len(want) == A.c[0].shape[-1] // 2 + 1
    a = max(max_abs(c) for c in A.c)
    for k, (g, w) in enumerate(zip(got, want)):
        assert (g.dim, g.order) == (w.dim, w.order), (label, k)
        scale = max(max(max_abs(c) for c in w.c), a ** k)
        for gc, wc in zip(g.c, w.c, strict=True):
            assert gc.shape == wc.shape, (label, k)
            assert max_abs(gc - wc) <= 1e-13 * scale, (label, k)
        if g.order >= 2:
            assert max_abs(g.c[2] - np.swapaxes(g.c[2], -1, -2)) \
                <= 1e-13 * scale, (label, k)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_char_poly_equals_the_product_construction(corpus, qp_ell1,
                                                   qp_complex, order):
    # every corpus chart, the complex pair on the Jacobian route and a
    # lift with a negative-signature constant block; the Jacobian route
    # stops at order 2, so its order-3 fields come from the explicit one
    charts = [(name, chart) for name, chart, _ in corpus] + [
        ("complex-jacobian", lift_pair(qp_complex, route="jacobian")),
        ("ell1-cb-signed", lift_pair(
            qp_ell1, (ConstantBlock(1.0, 4, (1, -1)),), route="explicit"))]
    for name, chart in charts:
        if order > 2 and chart.route == "jacobian":
            chart = lift_pair(chart.qp, chart.cb, route="explicit")
        fl = chart.eval(sample(chart, 12), order=order)
        _assert_char_poly_matches_products(fl.A, fl.J, name)


def _random_jet(rng, shape, dim, order):
    """A real jet of batch shape ``shape`` with random coefficients,
    each symmetric in its derivative axes as a Taylor coefficient is."""
    coeffs = []
    for k in range(order + 1):
        a = rng.normal(size=shape + (dim,) * k)
        n = len(shape)
        perms = list(itertools.permutations(range(n, n + k)))
        coeffs.append(sum(a.transpose(tuple(range(n)) + p) for p in perms)
                      / len(perms))
    return Jet(dim, order, coeffs)


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_char_poly_does_not_assume_that_j_and_a_commute(d, order):
    # random A and J, far from commuting and J^2 far from -Id: the
    # gradient construction is exact for any pair of matrix jets
    rng = np.random.default_rng(100 * d + order)
    A = _random_jet(rng, (7, d, d), 3, order)
    J = _random_jet(rng, (7, d, d), 3, order)
    comm = np.einsum("nij,njk->nik", A.c[0], J.c[0]) \
        - np.einsum("nij,njk->nik", J.c[0], A.c[0])
    assert max_abs(comm) > 0.5
    _assert_char_poly_matches_products(A, J, f"random-d{d}")


def test_char_poly_multiplies_no_matrix_at_the_order_of_a(monkeypatch,
                                                          corpus):
    # at d = 6 and order 2 every matrix-valued operand that
    # complex_char_poly hands to a jet product is of order 1 or less
    name, chart, _ = corpus[-1]
    fl = chart.eval(sample(chart, 8), order=2)
    assert name == "mobility2" and fl.A.c[0].shape[-1] == 6
    seen = []
    for fname in ("jet_matmul", "jet_einsum"):
        def recorded(*args, _orig=getattr(builders, fname), _name=fname):
            seen.append((_name, [(a.order, a.c[0].ndim) for a in args
                                 if isinstance(a, Jet)]))
            return _orig(*args)

        monkeypatch.setattr(builders, fname, recorded)
    builders.complex_char_poly(fl.A, fl.J)
    assert {n for n, _ in seen} == {"jet_matmul", "jet_einsum"}
    assert all(order < 2 for _, ops in seen for order, ndim in ops
               if ndim >= 3), seen


def test_jacobian_rhs_builds_at_most_40_jets(monkeypatch):
    # one geodesic right-hand side on the Dini Jacobian lift: an order-1
    # metric and its Christoffel symbols at N = 1, whose cost is per-call
    # overhead.  Every jet comes from ``Jet.__init__`` or ``Jet._of``; the
    # count guards that cost where timing on a noisy host cannot
    lift = lift_pair(build_quotient_pair(pair_dini()), route="jacobian")
    x = lift.window.center()
    want = christoffel(lift.metric(x, order=1))
    built = []
    init, of = Jet.__init__, Jet._of.__func__

    def counted_init(self, *a):
        built.append(1)
        init(self, *a)

    def counted_of(cls, *a):
        built.append(1)
        return of(cls, *a)

    monkeypatch.setattr(Jet, "__init__", counted_init)
    monkeypatch.setattr(Jet, "_of", classmethod(counted_of))
    got = christoffel(lift.metric(x, order=1))
    monkeypatch.undo()
    assert 0 < len(built) <= 40
    for a, b in zip(got.c, want.c, strict=True):
        assert a.tobytes() == b.tobytes()


def test_mu_jets_are_symmetric_functions(qp_dini):
    f = qp_dini.eval(sample(qp_dini, 6), order=1)
    r1, r2 = f.rhos[0].c[0], f.rhos[1].c[0]
    assert np.allclose(f.mus[1].c[0], r1 + r2)
    assert np.allclose(f.mus[2].c[0], r1 * r2)


def test_jacobian_route_rejects_order3(qp_ell1):
    ch = lift_pair(qp_ell1, route="jacobian")
    with pytest.raises(BuilderError, match="order"):
        ch.eval(sample(ch, 4), order=3)


@pytest.mark.parametrize("route", ["Jacobian", "implicit", ""])
def test_lift_refuses_an_unknown_route(qp_ell1, route):
    # eval and metric test only for "jacobian", so any other name would
    # build by the explicit route
    with pytest.raises(BuilderError, match=(
            f"unknown lift route '{route}': the routes are 'jacobian' "
            "and 'explicit'")):
        lift_pair(qp_ell1, route=route)


def test_chart_fields_frozen_and_replace_recomputes(qp_ell1):
    chart = lift_pair(qp_ell1, (ConstantBlock(0.0, 2),), route="explicit")
    pts = sample(chart, 12)
    fl = chart.eval(pts, order=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fl.g = fl.g
    derived = ("gamma0", "ginv", "lam", "det", "char_poly")
    gam, ginv, lam, det, cp = (getattr(fl, k) for k in derived)
    assert fl.gamma0 is gam and fl.char_poly is cp  # computed once, kept
    # a copy shares every cached quantity; the curvature caches nothing
    dup = copy.copy(fl)
    assert all(vars(dup)[k] is vars(fl)[k] for k in derived)
    dup.curvature(slice(None))
    assert derived_keys(dup) == derived_keys(fl) == set(derived)
    # a conformal change of g moves Gamma
    phi = Jet.seed(0, pts[:, 0], chart.dim, 2) * 0.1 + 1.0
    g2 = jet_einsum("nab,n->nab", fl.g, phi)
    fl2 = dataclasses.replace(fl, g=g2)
    assert fl2.gamma0 is not gam
    np.testing.assert_array_equal(fl2.gamma0.c[0], christoffel(g2).c[0])
    np.testing.assert_array_equal(fl2.curvature(slice(None)),
                                  riemann(christoffel(g2)))
    assert max_abs(fl2.gamma0.c[0] - gam.c[0]) > 1e-3
    # an edit of omega, A or J derives everything again, with the same
    # bytes where the edit does not reach
    edits = {"omega": fl.omega * 2.0, "A": shift_endo(fl.A, 1.0), "J": None}
    for k, new in edits.items():
        fl3 = dataclasses.replace(fl, **{k: new})
        assert not vars(fl3).keys() & set(derived), k
        assert fl3.det is not det and same_bytes(fl3.det.c[0], det.c[0])
        assert same_bytes(fl3.ginv.c[0], ginv.c[0])
        # without J, La takes the projective weight 1/2
        assert fl3.lam is not lam
        assert same_bytes(fl3.lam.c[0], (2.0 if k == "J" else 1.0) * lam.c[0])
        if k != "J":
            assert fl3.char_poly is not cp
    cp5 = dataclasses.replace(fl, omega=edits["omega"]).char_poly
    assert all(same_bytes(a.c[0], b.c[0]) for a, b in zip(cp5, cp))
    ncx = chart.dim // 2       # e_1 = tr_C A moves by ncx under A + Id
    np.testing.assert_allclose(
        dataclasses.replace(fl, A=edits["A"]).char_poly[1].c[0],
        cp[1].c[0] + ncx, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2])
def test_christoffel_values_in_either_read_order(corpus, order):
    # the Gamma values read before the curvature or after it are the
    # values of the full Christoffel jet, the curvature is the R of that
    # jet and leaves nothing on the fields; an order-1 evaluation has no
    # curvature
    for name, chart, _ in corpus:
        pts = sample(chart, 10)
        for values_first in (True, False):
            fl = chart.eval(pts, order=order)
            want = christoffel(fl.g, fl.ginv)
            gam0 = fl.gamma0 if values_first else None
            held = derived_keys(fl)
            if order == 1:
                with pytest.raises(JetError, match="order >= 1"):
                    fl.curvature(slice(None))
            else:
                R = fl.curvature(slice(None))
                assert same_bytes(R, riemann(want)), name
            assert derived_keys(fl) == held, name
            assert vars(fl).get("gamma0") is gam0, name
            gam0 = fl.gamma0
            assert gam0.order == 0, name
            assert same_bytes(gam0.c[0], want.c[0]), name


@pytest.mark.parametrize("read_curvature", [False, True])
def test_christoffel_values_are_kept_unless_g_changes(qp_ell1,
                                                      read_curvature):
    chart = lift_pair(qp_ell1, (ConstantBlock(0.0, 2),), route="explicit")
    pts = sample(chart, 12)
    fl = chart.eval(pts, order=2)
    gam0 = fl.gamma0
    R = fl.curvature(slice(None)) if read_curvature else None
    phi = Jet.seed(0, pts[:, 0], chart.dim, 2) * 0.1 + 1.0
    g2 = jet_einsum("nab,n->nab", fl.g, phi)
    fl2 = dataclasses.replace(fl, g=g2)
    assert "gamma0" not in vars(fl2)
    assert fl2.gamma0.c[0].tobytes() == christoffel(g2).c[0].tobytes()
    # a copy keeps them; an edit of omega or A derives them, and the
    # curvature, again with the same bytes
    dup = copy.copy(fl)
    assert dup.gamma0 is gam0
    for edited in (dataclasses.replace(fl, omega=fl.omega * 2.0),
                   dataclasses.replace(fl, A=shift_endo(fl.A, 1.0))):
        assert "gamma0" not in vars(edited)
        assert same_bytes(edited.gamma0.c[0], gam0.c[0])
        if read_curvature:
            assert same_bytes(edited.curvature(slice(None)), R)


def test_value_readers_build_no_christoffel_derivatives(monkeypatch,
                                                        corpus):
    # an order-2 mobility2 evaluation of 300 samples, more than a run's
    # block, through every suite that reads Gamma values: each sample's
    # values are built once from the first-order metric, of fl and of the
    # partner, and only the curvature builds Gamma from the order-2
    # metric, once per sample
    from cprojlab import curvspec, kahler, killing
    _, chart, consts = corpus[5]
    calls = []
    real = builders.christoffel
    monkeypatch.setattr(builders, "christoffel", lambda g, ginv=None: (
        calls.append((g.c[0], g.order)) or real(g, ginv)))
    fl = chart.eval(sample(chart, 300), order=2)
    check_kahler(fl)
    cproj_residual(fl)
    ks = killing.build_canonical_killing(fl, consts)
    killing.killing_property_suite(ks, fl)
    killing.a_on_k_recurrence(ks, fl)
    curvspec.nabla_lambda_endo(fl)
    c = kahler.spectrum_safe_shift(fl)
    kahler.hamiltonian_killing_check(fl, c)
    partner = kahler.partner_fields(
        dataclasses.replace(fl, A=shift_endo(fl.A, c)))
    kahler.connection_difference_check(fl, partner)
    g0, ghat0 = fl.g.c[0], partner.g.c[0]
    assert len(calls) == 2
    for a in (g0, ghat0):
        assert (christoffel_rows(calls, a, 1) == 1).all()
        assert (christoffel_rows(calls, a) == 1).all()
    fl.curvature(slice(None))
    assert len(calls) == 3         # the curvature took the 300 rows at once
    assert (christoffel_rows(calls, g0, 2) == 1).all()
    assert (christoffel_rows(calls, g0) == 2).all()
    assert (christoffel_rows(calls, ghat0) == 1).all()


def test_blocked_curvature_equals_the_whole_batch(monkeypatch, corpus):
    # the mobility2 chart at two whole blocks of a run and half of a
    # third: R of each block's rows, from that block's Christoffel jet,
    # is the bytes of the whole batch's, and the curvature leaves nothing
    # on the fields, so Gamma values read later are formed anew
    _, chart, _ = corpus[5]
    d = chart.dim
    rows = builders.BLOCK_BYTES // (8 * d * d * (1 + d + d * d))
    n = 2 * rows + rows // 2
    fl = chart.eval(sample(chart, n), order=2)
    blocks = []
    real = builders.christoffel
    monkeypatch.setattr(builders, "christoffel", lambda g, ginv=None: (
        blocks.append((len(g.c[0]), g.order)) or real(g, ginv)))
    R = np.concatenate([fl.curvature(slice(lo, lo + rows))
                        for lo in range(0, n, rows)])
    assert blocks == [(rows, 2), (rows, 2), (rows // 2, 2)]
    assert derived_keys(fl) == {"ginv"}
    assert same_bytes(R, riemann(christoffel(fl.g, fl.ginv)))
    assert same_bytes(fl.gamma0.c[0], christoffel(
        fl.g.truncate(1), fl.ginv.truncate(0)).c[0])
    assert blocks[3:] == [(n, 1)]


@pytest.mark.parametrize("which", ["mobility2", "jordan2"])
def test_one_sample_curvature_is_the_row_of_the_whole_batch(
        corpus, qp_jordan2, which):
    # one sample's R is the row of the whole batch's R, bit for bit: on
    # the mobility2 chart of three blocks of a run at the first and last
    # row of each block, and on a Jordan pair at every sample
    if which == "mobility2":
        _, chart, _ = corpus[5]
        d = chart.dim
        rows = builders.BLOCK_BYTES // (8 * d * d * (1 + d + d * d))
        n = 2 * rows + rows // 2
        fl = chart.eval(sample(chart, n), order=2)
        picks = (0, rows - 1, rows, 2 * rows - 1, 2 * rows, n - 1)
    else:
        fl = qp_jordan2.eval(sample(qp_jordan2, 12), order=2)
        picks = range(12)
    whole = riemann(christoffel(fl.g, fl.ginv))
    for s in picks:
        R = fl.curvature(slice(s, s + 1))
        assert same_bytes(R, whole[s:s + 1]), (which, s)


def test_blocked_char_poly_equals_the_whole_batch(monkeypatch, corpus):
    # the mobility2 chart at two whole blocks of the polynomial's stack
    # (B_k and A^k, one order below A) and half of a third, in one call:
    # the coefficients are the bytes of one whole-batch pass
    _, chart, _ = corpus[5]
    d = chart.dim
    # a sample's stack: d matrices of d x d at orders 0 and 1
    rows = builders.BLOCK_BYTES // (8 * d * d * d * (1 + d))
    fl = chart.eval(sample(chart, 2 * rows + rows // 2), order=2)
    blocks = []
    real = builders._char_poly_rows
    monkeypatch.setattr(builders, "_char_poly_rows", lambda A, J: (
        blocks.append(len(A.c[0])) or real(A, J)))
    got = builders.complex_char_poly(fl.A, fl.J)
    assert blocks == [rows, rows, rows // 2]
    monkeypatch.setattr(builders, "BLOCK_BYTES", 10 ** 12)
    want = builders.complex_char_poly(fl.A, fl.J)
    assert blocks[3:] == [len(fl.A.c[0])]
    assert len(got) == len(want) == d // 2 + 1
    for e, w in zip(got, want):
        assert e.order == w.order == 2
        assert all(same_bytes(a, b) for a, b in zip(e.c, w.c, strict=True))


_METRIC_CBS = {"plain": (), "cb": (ConstantBlock(0.0, 2),
                                   ConstantBlock(1.0, 2, (-1,)))}


@pytest.mark.parametrize("cb", _METRIC_CBS.values(), ids=_METRIC_CBS.keys())
@pytest.mark.parametrize("route,orders", [("explicit", range(4)),
                                          ("jacobian", range(3))],
                         ids=["explicit", "jacobian"])
@pytest.mark.parametrize("pair", [pair_ell1, pair_dini, pair_complex],
                         ids=["ell1", "dini", "complex"])
def test_metric_equals_eval_g_bitwise(pair, route, orders, cb):
    chart = lift_pair(build_quotient_pair(pair()), cb, route=route)
    pts = sample(chart, 5)
    for order in orders:
        g, want = chart.metric(pts, order), chart.eval(pts, order).g
        assert g.order == want.order == order
        for got, w in zip(g.c, want.c, strict=True):
            assert got.dtype == w.dtype
            np.testing.assert_array_equal(got, w)


@pytest.mark.parametrize("route", ["explicit", "jacobian"])
def test_metric_builds_no_L(monkeypatch, qp_dini, route):
    calls = []
    place_L = QuotientPair._L
    monkeypatch.setattr(QuotientPair, "_L",
                        lambda self, *a: calls.append(1) or place_L(self, *a))
    chart = lift_pair(qp_dini, route=route)
    pts = sample(chart, 4)
    chart.metric(pts, 1)
    assert calls == []
    chart.eval(pts, 1)
    assert calls == [1]


def test_one_chart_fields_per_evaluation(monkeypatch, qp_dini, qp_jordan2,
                                         mob_l2):
    # a quotient pair, both lift routes, mobility2 and the projective chart
    # each build the fields of an evaluation once, with no half-built copy
    calls = []
    init = builders.ChartFields.__init__
    monkeypatch.setattr(builders.ChartFields, "__init__",
                        lambda self, *a, **kw: calls.append(1)
                        or init(self, *a, **kw))
    charts = [qp_dini, qp_jordan2, lift_pair(qp_dini, route="explicit"),
              lift_pair(qp_dini, route="jacobian"), mob_l2,
              build_mobility2_projective(-0.5, m0=1, m1=1)]
    for chart in charts:
        for order in (0, 1, 2):
            calls.clear()
            chart.eval(sample(chart, 4), order)
            assert calls == [1], (chart, order)


def test_only_a_jordan_pair_carries_v(qp_jordan2, mob_l2):
    # a chart's mobility field is asked of the chart; the Jordan pair's
    # split field is part of its evaluation
    proj = build_mobility2_projective(-0.5, m0=1, m1=1)
    for chart in (mob_l2, proj):
        pts = sample(chart, 4)
        assert chart.eval(pts, 2).v is None
        assert chart.v_field(pts, order=2).c[0].shape == (4, chart.dim)
    fl = qp_jordan2.eval(sample(qp_jordan2, 4), 2)
    assert fl.v.order == 2 and fl.v.c[0].shape == (4, qp_jordan2.dim)


def test_projective_metric_equals_eval_g_bitwise():
    chart = build_mobility2_projective(-0.5, m0=1, m1=2)
    pts = sample(chart, 5)
    for order in range(4):
        g, want = chart.metric(pts, order), chart.eval(pts, order).g
        for got, w in zip(g.c, want.c, strict=True):
            np.testing.assert_array_equal(got, w)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_jacobian_ginv_is_the_inverse_behind_j(qp_dini, order):
    chart = lift_pair(qp_dini, (ConstantBlock(0.0, 2),), route="jacobian")
    fl = chart.eval(sample(chart, 6), order=order)
    assert "ginv" in fl.__dict__       # filled by eval, not derived on read
    want = metric_inverse(fl.g.truncate(max(order - 1, 0)))
    assert fl.ginv.order == want.order
    for got, w in zip(fl.ginv.c, want.c, strict=True):
        np.testing.assert_array_equal(got, w)
