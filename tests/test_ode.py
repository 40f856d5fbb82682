"""``cprojlab.ode`` against scipy's DOP853 as the oracle.

Every call site's problem is captured as it is handed to ``integrate``
and then solved by both integrators: the dense outputs, the states the
right-hand side is evaluated on and the terminal event times must agree.
Scipy calls the right-hand side once per state; ``integrate`` batches the
dense-output stages of all accepted steps into three calls.
"""

import numpy as np
import pytest

from cprojlab import builders, flows, ode
from cprojlab.builders import lift_pair, solve_jordan_odes

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp


@pytest.fixture
def captured(monkeypatch):
    """Problems handed to ``integrate`` by flows and builders."""
    calls = []

    def spy(fun, t_span, y0, rtol, atol, event=None):
        calls.append((fun, t_span, y0, rtol, atol, event))
        return ode.integrate(fun, t_span, y0, rtol, atol, event)

    monkeypatch.setattr(flows, "integrate", spy)
    monkeypatch.setattr(builders, "integrate", spy)
    return calls


def _counted(fun):
    """``fun`` recording the number of states (columns) of each call."""
    def f(t, y):
        f.widths.append(y.shape[1])
        return fun(t, y)
    f.widths = []
    return f


def _one_state(fun):
    """The vectorized ``fun`` as scipy calls it by default: one state of
    shape (n,) at a scalar t, with a count of the calls."""
    def f(t, y):
        f.n += 1
        return np.asarray(fun(np.array([t]), y[:, None]))[:, 0]
    f.n = 0
    return f


def assert_matches_scipy(fun, t_span, y0, rtol, atol, event=None):
    """Solve with both integrators; returns whether the event fired."""
    ours, ref_fun = _counted(fun), _one_state(fun)
    sol, t_event = ode.integrate(ours, t_span, y0, rtol, atol, event)
    events = None
    if event is not None:
        def events(t, y):
            return event(t, y)
        events.terminal, events.direction = True, -1.0
    ref = solve_ivp(ref_fun, t_span, y0, method="DOP853", rtol=rtol,
                    atol=atol, dense_output=True, events=events)
    assert ref.success, ref.message
    # the same states; the dense stages of the s steps take 3 calls, not 3s
    steps = len(sol.h)
    assert sum(ours.widths) == ref_fun.n
    assert len(ours.widths) == ref_fun.n - 3 * (steps - 1)
    # the same steps; the last boundary is the event time if one fired
    assert sol.ts.shape == ref.t.shape
    np.testing.assert_allclose(sol.ts, ref.t, rtol=1e-12, atol=1e-12)
    ts = np.linspace(t_span[0], ref.t[-1], 200)
    y, y_ref = sol(ts), ref.sol(ts)
    assert y.shape == y_ref.shape
    assert np.max(np.abs(y - y_ref)) <= 1e-12 * (1 + np.max(np.abs(y_ref)))
    fired = event is not None and len(ref.t_events[0]) > 0
    assert (t_event is not None) == fired
    if fired:
        assert abs(t_event - ref.t_events[0][0]) <= 1e-12
    return fired


def test_dini_geodesic_with_window_exit(captured, qp_dini):
    chart = lift_pair(qp_dini, route="jacobian")
    traj = flows.integrate_geodesic(chart, chart.window.center(),
                                    [0.2, 0.1, 0.15, -0.1], T=10.0)
    assert traj.exit_time is not None
    (problem,) = captured
    assert assert_matches_scipy(*problem)
    # the dense-output stages: three calls of width s, after the steps
    fun, t_span, y0, rtol, atol, event = problem
    counted = _counted(fun)
    sol, _ = ode.integrate(counted, t_span, y0, rtol, atol, event)
    steps = len(sol.h)
    assert steps > 1
    assert counted.widths[-3:] == [steps] * 3
    assert set(counted.widths[:-3]) == {1}


@pytest.mark.parametrize("kind, init", [("2x2", (0.5, 0.1)),
                                         ("3x3", (0.5, 0.1, 0.2))])
def test_jordan_systems_both_directions(captured, kind, init):
    solve_jordan_odes(kind, 2, -1.5, init, (0.2, 0.8))
    left, right = captured
    assert left[1][0] > left[1][1] and right[1][0] < right[1][1]
    for problem in (left, right):
        assert not assert_matches_scipy(*problem)


def test_flow_point_transport(captured, mob_l2):
    # both directions are one joint problem of twice the chart dimension
    x0 = mob_l2.window.center()
    flows.flow_point(mob_l2, x0, (1.0, -1.0))
    (problem,) = captured
    assert np.size(problem[2]) == 2 * mob_l2.dim
    assert_matches_scipy(*problem)


@pytest.mark.parametrize("name, r0", [("rho^2+1", 0.3 + 0.4j),
                                      ("rho(1-rho)", 0.5 + 0.3j),
                                      ("rho^2", 0.4 + 0.3j)])
def test_eigenvalue_flows_forward_and_backward(captured, name, r0):
    for T in (6.0, -6.0):
        flows.eigenvalue_flow(name, r0, T)
    for problem in captured:
        assert not assert_matches_scipy(*problem)


@pytest.mark.parametrize("T", [3.0, -3.0])
def test_eigenvalue_escape_event(captured, T):
    # rho = tan(t + pi/4) escapes at pi/4 forward and -3 pi/4 backward
    flows.eigenvalue_flow("rho^2+1", 1.0, T)
    (problem,) = captured
    assert assert_matches_scipy(*problem)


def test_tableau_matches_scipy():
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    for name in ("A", "B", "C", "E3", "E5", "D"):
        np.testing.assert_array_equal(getattr(ode, name),
                                      getattr(coef, name), err_msg=name)


@pytest.mark.parametrize("ascending", [True, False])
def test_breakpoint_takes_earlier_segment(ascending):
    # two flat segments holding 1 and 2; t = 1 is their common boundary
    ts = np.array([0.0, 1.0, 2.0] if ascending else [2.0, 1.0, 0.0])
    sol = ode.DenseSolution(ts, ts[:2], np.diff(ts),
                            np.array([[1.0], [2.0]]), np.zeros((2, 7, 1)))
    assert sol(1.0).tolist() == [1.0]
    assert sol(np.array([ts[0], 1.0, ts[2]])).tolist() == [[1.0, 1.0, 2.0]]


def test_zero_span_is_constant():
    sol, t_event = ode.integrate(lambda t, y: y, (1.0, 1.0), [2.0, 3.0],
                                 1e-6, 1e-9)
    assert t_event is None
    assert sol(np.array([1.0, 1.0])).tolist() == [[2.0, 2.0], [3.0, 3.0]]


@pytest.mark.parametrize("wrong", [
    lambda t, y: y[:, 0],              # one state of shape (n,)
    lambda t, y: y.T,                  # states as rows
    lambda t, y: [1.0],                # too few components
])
def test_wrong_shaped_rhs_names_the_contract(wrong):
    with pytest.raises(ValueError, match=r"must return shape \(n, k\) = "
                                         r"\(2, 1\)"):
        ode.integrate(wrong, (0.0, 1.0), [1.0, 2.0], 1e-8, 1e-8)


def test_blowup_raises():
    # y' = y^2, y(0) = 1 escapes at t = 1, inside the span
    with pytest.raises(ode.OdeError, match="step size"):
        ode.integrate(lambda t, y: y * y, (0.0, 2.0), [1.0], 1e-10, 1e-10)


def test_flow_blowup_without_escape_bound_is_flow_error():
    with pytest.raises(flows.FlowError, match="integration failed"):
        flows.eigenvalue_flow("rho^2", 1.0, 2.0, blowup=np.inf)


def test_jordan_failure_is_builder_error(monkeypatch):
    def fail(*args, **kwargs):
        raise ode.OdeError("step size too small")
    monkeypatch.setattr(builders, "integrate", fail)
    with pytest.raises(builders.BuilderError, match="ODE solve failed"):
        solve_jordan_odes("2x2", 2, -1.5, (0.5, 0.1), (0.2, 0.8))
