import numpy as np
import pytest

from cprojlab import ode
from cprojlab.builders import (
    CompatiblePairSpec, ConstantBlock, PowerProfile, Real1D,
    build_mobility2, build_mobility2_projective, build_quotient_pair,
    lift_pair,
)
from cprojlab.curvspec import lambda_two_eigen
from cprojlab.flows import (
    ODES, TRANSPORT_POINTS, Trajectory, circle_fit, eigenvalue_flow,
    flow_point, integrate_geodesic, integrate_jplanar, jordan2_fprime,
    jordan3_fprime, jplanarity_residual, lie_residual_suite, logistic,
    tail_exponent, transport_check, volume_coefficient,
)
from cprojlab.geometry import max_abs


@pytest.fixture(scope="module")
def flat_chart():
    spec = CompatiblePairSpec((Real1D(1, (0.0, 1.0), (-4.0, 4.0)),),
                              name="flat")
    return lift_pair(build_quotient_pair(spec), route="explicit",
                     t_window=(-4.0, 4.0))


def test_flat_geodesic_is_straight(flat_chart):
    traj = integrate_geodesic(flat_chart, [0.0, 0.0], [0.3, 0.2], T=2.0,
                              tol=1e-9)
    expect = np.outer(traj.t, [0.3, 0.2])
    assert max_abs(traj.x - expect) <= 1e-10
    assert not traj.exited


def test_flat_circle_under_complex_acceleration(flat_chart):
    # gamma'' = J gamma' traces a circle; period 2 pi
    traj = integrate_jplanar(flat_chart, [0.0, 0.0], [0.0, 1.0],
                             beta=lambda t: 1.0, T=2 * np.pi, tol=1e-9,
                             n_out=200)
    assert not traj.exited
    assert max_abs(traj.x[-1] - traj.x[0]) <= 1e-7
    c, r, resid = circle_fit(traj.x[:, 0] + 1j * traj.x[:, 1])
    assert abs(r - 1.0) <= 1e-8 and resid <= 1e-8
    assert jplanarity_residual(traj, flat_chart) <= 1e-12


def test_window_exit_reported(flat_chart):
    traj = integrate_geodesic(flat_chart, [0.0, 0.0], [1.0, 0.0], T=50.0)
    assert traj.exited
    assert traj.exit_time == pytest.approx(4.0, abs=0.2)


def test_random_nonplanar_curve_flagged(qp_dini):
    # span{v, Jv} is a proper subspace only from real dimension 4 up;
    # push the acceleration out of it there
    chart = lift_pair(qp_dini, route="jacobian")
    ts = np.linspace(0, 1, 30)
    c = chart.window.center()
    x = c[None] + 0.05 * np.stack([np.sin(ts), ts, 0.3 * ts, -0.2 * ts],
                                  axis=1)
    v = np.gradient(x, ts, axis=0)
    acc = np.zeros_like(v)
    acc[:, 3] = 0.5          # off the velocity plane
    traj = Trajectory(t=ts, x=x, v=v, acc=acc)
    r = jplanarity_residual(traj, chart)
    assert r > 1e-2


def test_geodesic_jplanarity_zero_same_metric(qp_dini):
    chart = lift_pair(qp_dini, route="jacobian")
    x0 = chart.window.center()
    traj = integrate_geodesic(chart, x0, [0.2, 0.1, 0.15, -0.1], T=1.0,
                              tol=1e-8)
    assert jplanarity_residual(traj, chart, metric="g") <= 1e-9


def test_geodesic_transfers_to_partner(qp_dini):
    chart = lift_pair(qp_dini, route="jacobian")
    x0 = chart.window.center()
    traj = integrate_geodesic(chart, x0, [0.2, 0.1, 0.15, -0.1], T=1.0,
                              tol=1e-8)
    assert jplanarity_residual(traj, chart, metric="partner") <= 1e-6


def test_logistic_flow_and_endpoint():
    traj = eigenvalue_flow("rho(1-rho)", 0.5, 5.0)
    assert abs(traj.x[-1, 0].real - 1.0 / (1.0 + np.exp(-5.0))) <= 1e-8
    # integrator contract: halving the tolerance gains at least 4x
    # (measured in the error-limited regime, away from saturation)
    errs = []
    for tol in (2.5e-2, 1.25e-2):
        tr = eigenvalue_flow("rho(1-rho)", 0.5, 5.0, tol=tol, n_out=2)
        errs.append(abs(tr.x[-1, 0].real - logistic(0.5, 5.0)))
    assert errs[1] <= errs[0] / 4.0


def test_fixed_points_match_flows():
    assert ODES["rho(1-rho)"][1] == (0.0, 1.0)
    assert ODES["rho^2"][1] == (0.0,)
    assert set(ODES["rho^2+1"][1]) == {1j, -1j}
    for rhs, fixed in ODES.values():
        assert all(rhs(p) == 0 for p in fixed)


def test_complex_orbit_circle_through_fixed_points():
    fw = eigenvalue_flow("rho(1-rho)", 0.5 + 0.3j, 12.0)
    bw = eigenvalue_flow("rho(1-rho)", 0.5 + 0.3j, -12.0)
    z = np.concatenate([bw.x[::-1, 0], fw.x[:, 0]])
    c, r, resid = circle_fit(z)
    assert resid <= 1e-6
    assert abs(abs(c - 0.0) - r) <= 1e-6
    assert abs(abs(c - 1.0) - r) <= 1e-6


def test_real_blowup_reported():
    traj = eigenvalue_flow("rho^2+1", 1.0, 3.0)
    assert traj.exited
    # rho(t) = tan(t + pi/4) escapes at pi/4
    assert traj.exit_time == pytest.approx(np.pi / 4, abs=1e-4)


def test_lie_residual_suite_canonical_form():
    cb = (ConstantBlock(0.0, 2), ConstantBlock(1.0, 2))
    ch = build_mobility2(1, 1.0, -0.5, cb=cb)
    rep = lie_residual_suite(ch)
    assert rep.max_value() <= 1e-10


def test_transport_matches_logistic():
    cb = (ConstantBlock(0.0, 2), ConstantBlock(1.0, 2))
    ch = build_mobility2(1, 1.0, -1.0, cb=cb)
    rep = transport_check(ch, t_span=(-3.0, 3.0))
    assert rep.entries[0].value <= 1e-8


def _transport_two_solves(chart, x0, t_span):
    """The transport value from one solve per direction, each at the
    internal tolerance of ``transport_check`` and with one ``v_field``
    call per state: the reference for the joint solve."""
    rho_idx = chart.rho_idx[0]

    def rhs(t, y):
        return np.stack([chart.v_field(x[None], order=0).c[0][0]
                         for x in y.T], axis=1)

    worst = 0.0
    for T in (t_span[1], t_span[0]):
        sol, _ = ode.integrate(rhs, (0.0, T), x0, 1e-13, 1e-13)
        ts = np.linspace(0.0, T, TRANSPORT_POINTS)
        rho = sol(ts)[rho_idx]
        worst = max(worst, float(np.max(np.abs(
            rho - logistic(x0[rho_idx], ts)))))
    return worst


def test_transport_solves_both_directions_at_once(monkeypatch):
    from cprojlab import flows
    cb = (ConstantBlock(0.0, 2), ConstantBlock(1.0, 2))
    ch = build_mobility2(1, 1.0, -1.0, cb=cb)
    x0, t_span = ch.window.center(), (-3.0, 3.0)
    calls = _count_calls(monkeypatch, ch, ("v_field",))
    want = _transport_two_solves(ch, x0, t_span)
    ref_calls, calls["v_field"] = calls["v_field"], 0
    states = []

    def spy(fun, t_span, y0, *a):
        states.append(np.size(y0))
        return ode.integrate(fun, t_span, y0, *a)

    monkeypatch.setattr(flows, "integrate", spy)
    got = transport_check(ch, x0, t_span).entries[0].value
    assert states == [2 * ch.dim]
    assert abs(got - want) <= 1e-11
    assert calls["v_field"] <= 0.5 * ref_calls


def test_volume_coefficient_all_cases():
    cb = (ConstantBlock(0.0, 2), ConstantBlock(1.0, 2))
    for C, expect in ((-0.5, -1.5), (-1.0, 0.0), (-1.5, 1.5)):
        ch = build_mobility2(1, 1.0, C, cb=cb)
        rep = volume_coefficient(ch)
        assert rep.entries[0].value <= 1e-9
        assert f"predicted={expect:.6g}" in rep.entries[0].note
    chp = build_mobility2_projective(-0.5, m0=1, m1=0)
    rep = volume_coefficient(chp)
    assert rep.entries[0].value <= 1e-9
    assert "predicted=-0.25" in rep.entries[0].note


def test_blowup_scan_exponents(jordan2_sol, jordan3_sol):
    # toward F + x = 0 (2x2) and F + 2 x2 = 0 (3x3) at rho1 = 0.5
    s = np.geomspace(1e-1, 1e-4, 16)
    vals = jordan2_fprime(jordan2_sol, -jordan2_sol(0.5) + s, 0.5)
    assert tail_exponent(s, vals) == pytest.approx(-3.0, abs=0.05)
    vals = jordan3_fprime(jordan3_sol, (-jordan3_sol(0.5) + s) / 2.0, 0.5)
    assert tail_exponent(s, vals) == pytest.approx(-2.0, abs=0.05)


def test_blowup_scan_two_eigen_cases():
    # toward the corner (r1, r2) = (s, 2 s) -> 0
    s = np.geomspace(1e-1, 1e-5, 20)
    vals = lambda_two_eigen(PowerProfile(1.0, -1.5, 1.5), s, 2 * s)
    assert abs(tail_exponent(s, vals) + 1.5) <= 0.05
    assert abs(vals[-1]) > 100 * abs(vals[0])
    flat = lambda_two_eigen(PowerProfile(1.0, 0.0, 3.0), s, 2 * s)
    assert np.max(np.abs(flat - 0.25)) <= 1e-8


def test_reparameterization_invariance(flat_chart):
    traj = integrate_jplanar(flat_chart, [0.0, 0.0], [0.0, 1.0],
                             beta=lambda t: 1.0, T=3.0, tol=1e-9,
                             n_out=120)
    r0 = jplanarity_residual(traj, flat_chart)
    # smooth reparameterization s = tanh-like stretching: scale v and acc
    lam = 1.0 + 0.5 * np.sin(traj.t)
    dlam = 0.5 * np.cos(traj.t)
    v2 = traj.v * lam[:, None]
    acc2 = traj.acc * (lam ** 2)[:, None] + traj.v * (lam * dlam)[:, None]
    traj2 = Trajectory(t=traj.t, x=traj.x, v=v2, acc=acc2)
    r2 = jplanarity_residual(traj2, flat_chart)
    # pass/fail classification is invariant
    assert (r0 <= 1e-8) and (r2 <= 1e-8)


def test_flow_requires_vector_field(qp_dini):
    chart = lift_pair(qp_dini, route="jacobian")
    with pytest.raises(Exception):
        flow_point(chart, chart.window.center(), (1.0,))


def _count_calls(monkeypatch, chart, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*a, _orig=getattr(chart, name), _name=name, **kw):
            calls[_name] += 1
            return _orig(*a, **kw)
        monkeypatch.setattr(chart, name, counted)
    return calls


def test_geodesic_reads_only_the_metric(qp_dini, monkeypatch):
    chart = lift_pair(qp_dini, route="jacobian")
    calls = _count_calls(monkeypatch, chart, ("eval", "metric"))
    integrate_geodesic(chart, chart.window.center(), [0.2, 0.1, 0.15, -0.1],
                       T=0.5, tol=1e-8)
    assert calls["eval"] == 0 and calls["metric"] > 10
    # a complex-line acceleration needs J, so it evaluates the chart
    calls.update(eval=0, metric=0)
    integrate_jplanar(chart, chart.window.center(), [0.2, 0.1, 0.15, -0.1],
                      beta=lambda t: 0.5, T=0.5, tol=1e-8)
    assert calls["metric"] == 0 and calls["eval"] > 10


def test_planarity_transfer_residuals_match_eval_path(qp_dini, monkeypatch):
    # criterion 11 run twice: through the metric-only connection and
    # through Gamma of the full chart evaluation; the residuals agree bitwise
    from cprojlab import flows
    chart = lift_pair(qp_dini, route="jacobian")

    def residuals():
        rng = np.random.default_rng(3)
        out = []
        for _ in range(3):
            v0 = rng.normal(size=4)
            v0 = 0.6 * v0 / np.linalg.norm(v0)
            traj = integrate_geodesic(chart, chart.window.center(), v0,
                                      T=1.0, tol=1e-9)
            out.append(jplanarity_residual(traj, chart, metric="partner"))
        return out

    via_metric = residuals()

    def eval_connection(chart, pts, need_J):
        fl = chart.eval(pts, order=1)
        return fl.gamma.c[0], fl.J.c[0]

    monkeypatch.setattr(flows, "_connection", eval_connection)
    assert residuals() == via_metric
    assert max(via_metric) <= 1e-5
