"""ODE-level dynamics on constructed charts.

Geodesics and their complex-line generalization gamma'' = beta J gamma'
integrate with an adaptive Runge-Kutta solver and terminate on window
exit.  Without the J term the right-hand side reads only the metric: each
step, and the output accelerations, take Gamma from ``chart.metric``
instead of a full chart evaluation, which would also build omega, J and
A.  Planarity of a trajectory with respect to a second metric is
measured by projecting the acceleration off span{velocity, J velocity}.
Eigenvalue transport along the canonical mobility field follows the
logistic law; its forward and backward integral curves are rescaled to
one parameter interval and solved as one system, so each right-hand side
evaluates v once at both curves' points.  The scalar flows
rho' = rho^2 + 1, rho(1-rho), rho^2 trace circles in the complex plane
whose fit closes the phase-portrait checks.
The split Lie equations of a nilpotent block, the volume response of the
leaf metric under the off-leaf part of v and the closed-form curvature
eigenvalues of the nilpotent blocks, with the exponent fit of their
divergence, complete the module.

Integrator contract: the solver runs at the internal tolerance
max(tol^2, 1e-13), relative and absolute.  Every caller in this package
passes tol <= 1e-8, so every ``cprojlab run`` integrates at the 1e-13
floor and ``tol`` changes nothing there; only a tol above about 3e-7
reaches the solver, and then halving it cuts the endpoint error by about
four.
Every right-hand side is vectorized as ``cprojlab.ode`` asks: it takes
states as the columns of y, one time each, and evaluates the chart once
at all their points.
"""

from __future__ import annotations

import numpy as np

from .builders import ProjectiveMobilityChart, mobility_rhs
from .geometry import (
    christoffel, lie_endo, lie_metric, max_abs, nan_max, normal_part)
from .kahler import partner_fields
from .ode import OdeError, integrate
from .report import CheckEntry, ResidualReport

__all__ = [
    "FlowError", "Trajectory", "integrate_jplanar", "integrate_geodesic",
    "jplanarity_residual", "ODES", "eigenvalue_flow", "circle_fit",
    "logistic", "lie_residual_suite", "split_lie_suite", "transport_check",
    "volume_coefficient", "tail_exponent", "jordan2_fprime",
    "jordan3_fprime", "flow_point",
]

_INTERNAL_FLOOR = 1e-13
TRANSPORT_POINTS = 60  # output points per direction of the transport check
TAIL = 8               # points in the tail fit of a divergence exponent


class FlowError(ValueError):
    pass


class Trajectory:
    def __init__(self, t, x, v, acc=None, exit_time=None):
        self.t = t          # (m,)
        self.x = x          # (m, d) positions
        self.v = v          # (m, d) velocities (None for flows without)
        self.acc = acc      # (m, d) accelerations gamma''
        self.exit_time = exit_time    # the window exit or escape, if any


def _solve(rhs, T, y0, tol, event=None):
    """Dense solution over (0, T) at internal tolerance
    max(tol^2, 1e-13), and the time the terminal ``event`` fired (None if
    it did not).  The callers here pass tol <= 1e-8, so they all run at
    the 1e-13 floor."""
    it = max(tol * tol, _INTERNAL_FLOOR)
    try:
        return integrate(rhs, (0.0, T), y0, it, it, event)
    except OdeError as exc:
        raise FlowError(f"integration failed: {exc}") from None


def _connection(chart, pts, need_J):
    """Values of Gamma at the points, and of J when ``need_J``.  A
    geodesic reads only the metric, so it skips the full chart evaluation.
    """
    if not need_J:
        return christoffel(chart.metric(pts, order=1)).c[0], None
    fl = chart.eval(pts, order=1)
    return fl.gamma0.c[0], fl.J.c[0]


def integrate_jplanar(chart, x0, v0, beta=None, T=1.0, tol=1e-8,
                      n_out=200) -> Trajectory:
    """Integrate gamma'' + Gamma(gamma', gamma') = beta J gamma', clipped
    to the chart window.

    ``beta`` is a scalar function of the curve parameter (or None for a
    plain geodesic).  With ``beta`` None only the metric is evaluated.  The
    output accelerations are the right-hand side the solver steps with,
    evaluated once at all the output states.
    """
    d = chart.dim
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if not chart.window.contains(x0[None])[0]:
        raise FlowError("start point outside the chart window")

    def rhs(t, y):
        x, v = y[:d], y[d:]
        gam, J = _connection(chart, x.T, beta is not None)
        acc = -np.einsum("kcab,ak,bk->ck", gam, v, v)
        if beta is not None:
            acc = acc + np.array([beta(tk) for tk in t]) * np.einsum(
                "kab,bk->ak", J, v)
        return np.concatenate([v, acc])

    def exit_event(t, y):
        x = y[:d]
        lo = np.min(np.minimum(x - chart.window.lo,
                               chart.window.hi - x))
        return lo

    sol, t_exit = _solve(rhs, T, np.concatenate([x0, v0]), tol, exit_event)
    ts = np.linspace(0.0, T if t_exit is None else t_exit, n_out)
    ys = sol(ts)
    return Trajectory(t=ts, x=ys[:d].T, v=ys[d:].T, acc=rhs(ts, ys)[d:].T,
                      exit_time=None if t_exit is None else float(t_exit))


def integrate_geodesic(chart, x0, v0, T=1.0, tol=1e-8):
    return integrate_jplanar(chart, x0, v0, None, T, tol)


def jplanarity_residual(traj: Trajectory, chart, metric="g") -> float:
    """Max over trajectory samples of the covariant acceleration
    component orthogonal to span{velocity, J velocity}.

    ``metric`` selects whose connection measures the acceleration: the
    chart metric 'g' or its 'partner'; any other name is an error.  The
    trajectory must carry its coordinate accelerations gamma''."""
    if metric not in ("g", "partner"):
        raise FlowError(f"metric must be 'g' or 'partner', not {metric!r}")
    if traj.acc is None:
        raise FlowError("trajectory carries no acceleration data")
    fl = chart.eval(traj.x, order=1)
    if metric == "partner":
        fl = partner_fields(fl)
    gv, gam = fl.g.c[0], fl.gamma0.c[0]
    Jv = fl.J.c[0]
    v = traj.v
    acc = traj.acc + np.einsum("ncab,na,nb->nc", gam, v, v)
    Jv_v = np.einsum("nab,nb->na", Jv, v)
    span = np.stack([v, Jv_v], axis=1)                  # (n, 2, d)
    gram = np.einsum("nia,nab,njb->nij", span, gv, span)
    # keep the samples whose Gram matrix is far from singular on the scale
    # of g and of the span, so a slow curve or a small metric measures as
    # a fast or large one; a null span (G = 0) is never kept
    det = np.abs(gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0])
    scale = (np.sqrt(np.einsum("nij,nij->n", gram, gram))
             * max_abs(gv) * max_abs(span) ** 2)
    ok = det > 1e-8 * scale
    if not ok.any():
        raise FlowError("velocity span degenerate along the trajectory")
    acc = acc[ok]
    off = normal_part(acc, span[ok], gv[ok], np.linalg.inv(gram[ok]))
    return max_abs(off) / (1.0 + max_abs(acc))


# ---------------------------------------------------------------------------
# scalar eigenvalue flows
# ---------------------------------------------------------------------------

# the scalar flows by name: the right-hand side and its fixed points
ODES = {
    "rho^2+1": (lambda r: r * r + 1.0, (1j, -1j)),
    "rho(1-rho)": (lambda r: r * (1.0 - r), (0.0, 1.0)),
    "rho^2": (lambda r: r * r, (0.0,)),
}


def eigenvalue_flow(ode: str, rho0, T, tol=1e-10, n_out=400,
                    blowup=1e6) -> Trajectory:
    """Complex trajectory of the scalar flow; reports finite-time escape."""
    f, _ = ODES[ode]

    def rhs(t, y):
        # one state at a time in complex scalars: numpy's complex array
        # product fuses a multiply-add that scalar arithmetic rounds twice,
        # and the orbit should not depend on how the states are batched
        dr = np.array([f(a + 1j * b) for a, b in y.T])
        return [dr.real, dr.imag]

    def escape(t, y):
        return blowup - np.hypot(y[0], y[1])

    r0 = complex(rho0)
    sol, t_esc = _solve(rhs, T, [r0.real, r0.imag], tol, escape)
    ts = np.linspace(0.0, T if t_esc is None else t_esc, n_out)
    ys = sol(ts)
    return Trajectory(t=ts, x=(ys[0] + 1j * ys[1])[:, None], v=None,
                      exit_time=None if t_esc is None else float(t_esc))


def circle_fit(z):
    """Least-squares circle through complex points: (center, radius,
    max radial deviation)."""
    z = np.asarray(z).ravel()
    x, y = z.real, z.imag
    M = np.stack([2 * x, 2 * y, np.ones_like(x)], axis=1)
    b = x * x + y * y
    (cx, cy, c0), *_ = np.linalg.lstsq(M, b, rcond=None)
    r = np.sqrt(c0 + cx * cx + cy * cy)
    resid = np.max(np.abs(np.abs(z - (cx + 1j * cy)) - r))
    return complex(cx, cy), float(r), float(resid)


def logistic(rho0, t):
    """Closed form of rho' = rho(1-rho)."""
    t = np.asarray(t, dtype=float)
    e = np.exp(t)
    return rho0 * e / (1.0 - rho0 + rho0 * e)


# ---------------------------------------------------------------------------
# Lie-derivative residual suite along (c-)projective fields
# ---------------------------------------------------------------------------

def _v_points(chart, n, seed):
    """``n`` window points drawn with ``seed`` and the chart's vector field
    v at them to order 1."""
    pts = chart.window.random(n, np.random.default_rng(seed))
    return pts, chart.v_field(pts, order=1)


def lie_residual_suite(chart, tol=1e-6) -> ResidualReport:
    """Residuals of L_v A and L_v g against the canonical mobility form
    L_v A = A(Id - A), L_v g = -gA - (sum rho_i + C) g."""
    grid_pts, v = _v_points(chart, 80, 11)
    fl = chart.eval(grid_pts, order=1)
    n = grid_pts.shape[0]
    rhs_g, rhs_A = mobility_rhs(fl, chart.meta["C"])
    lg = lie_metric(fl.g, v)
    lA = lie_endo(fl.A, v)
    rep = ResidualReport(title="lie-residuals")
    rep.add(CheckEntry("lie_v_metric", "L_v g = canonical RHS",
                       max_abs(lg - rhs_g) / (1.0 + max_abs(rhs_g)),
                       tol, samples=n))
    rep.add(CheckEntry("lie_v_endo", "L_v A = canonical RHS",
                       max_abs(lA - rhs_A) / (1.0 + max_abs(rhs_A)),
                       tol, samples=n))
    return rep


def split_lie_suite(flds, n2, C, tol=1e-6) -> ResidualReport:
    """Residuals of the split Lie equations of a nilpotent block,
    L_v L = L - L^2 and L_v h = (n2-1) hL - (tr L + C + n2) h, on the
    quotient fields (g = h, A = L) at their samples."""
    h, L = flds.g.c[0], flds.A.c[0]
    trL = np.trace(L, axis1=-2, axis2=-1)
    rhs_L = L - np.einsum("nab,nbc->nac", L, L)
    hL = np.einsum("nac,ncb->nab", h, L)
    rhs_h = (n2 - 1.0) * hL - (trL + C + n2)[:, None, None] * h
    rL = max_abs(lie_endo(flds.A, flds.v) - rhs_L), max_abs(rhs_L)
    rh = max_abs(lie_metric(flds.g, flds.v) - rhs_h), max_abs(rhs_h)
    n = h.shape[0]
    rep = ResidualReport(title="split-lie")
    rep.add(CheckEntry.of("split_lie_endo", "L_v L = L - L^2", [rL], tol,
                          samples=n),
            CheckEntry.of("split_lie_metric",
                          "L_v h = (n2-1) hL - (tr L + C + n2) h", [rh],
                          tol, samples=n))
    return rep


def flow_point(chart, x0, spans, n_out=120) -> list[Trajectory]:
    """Integral curves of the chart's vector field v from ``x0``, one over
    (0, T) for each T in ``spans``, solved as one system: x_T(s) = x(T s)
    solves x_T' = T v(x_T) on s in [0, 1], so every right-hand side is one
    ``v_field`` call at all the curves' points."""
    if chart.v_matrix is None:
        raise FlowError("chart carries no vector field")
    spans = np.asarray(spans, dtype=float)
    m, d = spans.size, chart.dim

    def rhs(s, y):
        k = y.shape[1]
        pts = y.reshape(m, d, k).transpose(0, 2, 1).reshape(m * k, d)
        v = chart.v_field(pts, order=0).c[0].reshape(m, k, d)
        return (spans[:, None, None] * v).transpose(0, 2, 1).reshape(m * d, k)

    sol, _ = _solve(rhs, 1.0, np.tile(np.asarray(x0, dtype=float), m), 1e-10)
    s = np.linspace(0.0, 1.0, n_out)
    xs = sol(s).reshape(m, d, n_out)
    return [Trajectory(t=T * s, x=x.T, v=None)
            for T, x in zip(spans, xs)]


def transport_check(chart, x0=None, t_span=(-3.0, 3.0), tol=1e-6
                    ) -> ResidualReport:
    """Eigenvalue transport along v against the logistic closed form, both
    directions in one solve."""
    if x0 is None:
        x0 = chart.window.center()
    rho_idx = chart.rho_idx[0]
    rho0 = float(x0[rho_idx])
    worst = 0.0
    for traj in flow_point(chart, x0, (t_span[1], t_span[0]),
                           n_out=TRANSPORT_POINTS):
        rho_t = traj.x[:, rho_idx]
        expect = logistic(rho0, traj.t)
        worst = nan_max(worst, max_abs(rho_t - expect))
    rep = ResidualReport(title="transport")
    rep.add(CheckEntry("eigenvalue_transport", "rho(t) logistic",
                       worst, tol, samples=2 * TRANSPORT_POINTS))
    return rep


# ---------------------------------------------------------------------------
# volume response of the leaf metric
# ---------------------------------------------------------------------------

def volume_coefficient(chart, tol=1e-5) -> ResidualReport:
    """Measured f = (1/2) tr(g2^{-1} L_{v2} g2) on the leaves orthogonal
    to the eigenvalue direction, against the predicted constant.

    Works on mobility charts with one non-constant eigenvalue: the leaf
    coordinates are everything except the rho coordinate; v2 is the
    projection of v onto them.
    """
    if getattr(chart, "ell", None) != 1:
        raise FlowError("volume coefficient needs one non-constant "
                        "eigenvalue")
    grid_pts, v = _v_points(chart, 40, 5)
    g = chart.metric(grid_pts, order=1)
    d = chart.dim
    rho_idx = chart.rho_idx[0]
    leaf = [i for i in range(d) if i != rho_idx]
    C = chart.meta["C"]
    m0, m1 = chart.meta["m0"], chart.meta["m1"]
    if isinstance(chart, ProjectiveMobilityChart):
        predicted = 0.5 * (-C - 1.0) * (m0 + m1)
    else:
        predicted = (-C - 1.0) * (m0 + m1 + 1.0)

    # v must preserve the leaf distribution: v^rho depends on rho only
    vrho_leafgrad = v.c[1][:, rho_idx, :][:, leaf]
    if max_abs(vrho_leafgrad) > 1e-8:
        raise FlowError("v does not preserve the leaf foliation")

    g2 = g.c[0][np.ix_(range(len(grid_pts)), leaf, leaf)]
    dg2 = g.c[1][np.ix_(range(len(grid_pts)), leaf, leaf, leaf)]
    v2 = v.c[0][:, leaf]
    dv2 = v.c[1][np.ix_(range(len(grid_pts)), leaf, leaf)]
    lg2 = (np.einsum("nabc,nc->nab", dg2, v2)
           + np.einsum("ncb,nca->nab", g2, dv2)
           + np.einsum("nac,ncb->nab", g2, dv2))
    f = 0.5 * np.einsum("nab,nba->n", np.linalg.inv(g2), lg2)
    rep = ResidualReport(title="volume-coefficient")
    rep.add(CheckEntry("volume_coefficient",
                       "L_{v2} vol = const * vol",
                       float(np.max(np.abs(f - predicted))), tol,
                       samples=len(grid_pts),
                       note=f"predicted={predicted:.6g}"))
    return rep


# ---------------------------------------------------------------------------
# curvature eigenvalues of the nilpotent blocks and their divergence
# ---------------------------------------------------------------------------

def tail_exponent(s, y):
    """Least-squares slope of log|y| against log s on the last points."""
    s = np.asarray(s, dtype=float)[-TAIL:]
    y = np.abs(np.asarray(y, dtype=float))[-TAIL:]
    if np.any(y == 0.0):
        raise FlowError("zero values in the divergence tail")
    return float(np.polyfit(np.log(s), np.log(y), 1)[0])


def jordan2_fprime(sol, x, rho1, extra_rhos=(), extra_profiles=()):
    """The curvature eigenvalue of a 2x2 nilpotent block instance:

    f'(r1) = -F'(r1) / ((F(r1)+x)^3 prod (r1 - r_i))
             + sum_i F_i(r_i) / (4 (r_i - r1)^4 prod_{j != 1,i}(r_i - r_j))
    """
    F = sol(rho1)
    dF = sol.fprime(rho1)
    denom = np.prod([rho1 - r for r in extra_rhos]) if extra_rhos else 1.0
    out = -dF / ((F + x) ** 3 * denom)
    for i, (ri, prof) in enumerate(zip(extra_rhos, extra_profiles)):
        rest = np.prod([ri - rj for j, rj in enumerate(extra_rhos)
                        if j != i]) if len(extra_rhos) > 1 else 1.0
        out = out + prof(ri) / (4.0 * (ri - rho1) ** 4 * rest)
    return out


def jordan3_fprime(sol, x2, rho1):
    """The curvature eigenvalue of a lone 3x3 nilpotent block:
    f'(r1) = -3 / (4 (F(r1) + 2 x2)^2)."""
    return -3.0 / (4.0 * (sol(rho1) + 2.0 * x2) ** 2)
