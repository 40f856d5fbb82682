"""Scenario runner: parse a config, build the instance, run check suites,
emit a deterministic report and optional CSV data.

Exit codes: 0 when every selected check passes, 1 when a check fails,
2 on a bad config or an instance that cannot be built.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, parse_config, serialize_config
from .report import CheckEntry, ResidualReport, config_hash, fmt
from .geometry import GeometryError, GridSpec, max_abs
from .jets import Jet, JetError
from .builders import (
    BuilderError, CompatiblePairSpec, Complex2D, ConstantBlock, Real1D,
    build_main_example, build_mobility2, build_quotient_pair,
    jordan_pair_spec, lift_pair, solve_jordan_odes,
)
from .kahler import (
    check_kahler, commuting_gradients_residual, connection_difference_check,
    cproj_residual, eigenvector_gradient_residual, hamiltonian_killing_check,
    mu_hat_duality_residual, partner_metric, proj_residual, recover_endo,
    shift_endo, spectrum_safe_shift,
)
from .killing import a_on_k_recurrence, build_canonical_killing, killing_property_suite
from .curvspec import (
    compare_with_numeric, fppp_limit_check, ricci_identity_check,
)
from .flows import (
    blowup_scan, circle_fit, eigenvalue_flow, fixed_points,
    lie_residual_suite, logistic, tail_exponent, transport_check,
    volume_coefficient,
)
from .vandermonde import collision_limit, det_quotient, sum_over_delta

DEFAULT_TOLS = {
    "kahler": 1e-6, "cproj": 1e-6, "proj": 1e-6, "killing": 1e-6,
    "aonk": 1e-7, "dual": 1e-7, "ricci": 1e-6, "lie": 1e-6,
    "volume": 1e-5, "transport": 1e-6, "ode": 1e-9, "pde_split": 1e-6,
    "spectrum": 1e-5, "roundtrip": 1e-9, "planarity": 1e-5,
    "vandermonde": 1e-11,
}


def _as_num(val, what, kind=float, lo=None):
    """``val`` as a finite ``kind`` (int or float), at least ``lo`` when
    given, or a ConfigError naming ``what``.  An int rejects fractional
    values."""
    try:
        out = kind(val)
        bad = not math.isfinite(out)
    except (TypeError, ValueError, OverflowError):
        bad = True
    if bad or isinstance(val, bool) or (kind is int and out != val):
        need = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{what} needs {need}, got {val!r}")
    if lo is not None and out < lo:
        raise ConfigError(f"{what} needs a value >= {lo}, got {val!r}")
    return out


def _num(cfg, key, default, kind=float, lo=None):
    """Option ``key`` through ``_as_num``."""
    return _as_num(cfg.opt(key, default), f"option {key!r}", kind, lo)


def _tol(cfg, scale, cls):
    return _num(cfg, f"tol.{cls}", DEFAULT_TOLS[cls]) * scale


def _seed(cfg, args):
    return args.seed if args.seed is not None else _num(cfg, "seed", 0, int)


def _grid(cfg, args):
    per = (_as_num(args.grid, "--grid", int, lo=1) if args.grid is not None
           else _num(cfg, "grid", 5, int, lo=1))
    rnd = _num(cfg, "random", 64, int, lo=0)
    return GridSpec(per_axis=per, n_random=rnd, seed=_seed(cfg, args))


def _req(d, key, section):
    """``d[key]`` of a config section, or a ConfigError naming both."""
    if key not in d:
        raise ConfigError(f"[{section}] section lacks required key {key!r}")
    return d[key]


def _key_num(val, key, section, kind=float):
    """A numeric key of a config section through ``_as_num``."""
    return _as_num(val, f"[{section}] key {key!r}", kind)


def _pair_spec(cfg) -> CompatiblePairSpec:
    blocks = []
    for d in cfg.blocks("block"):
        kind = d.get("kind", "real1d")
        if kind == "real1d":
            w = _req(d, "window", "block")
            rho = np.atleast_1d(_req(d, "rho", "block"))
            eps = _key_num(d.get("eps", 1), "eps", "block", int)
            blocks.append(Real1D(eps, tuple(rho), (w[0], w[1])))
        elif kind == "complex2d":
            re = np.atleast_1d(_req(d, "rho_re", "block")).astype(float)
            im = np.atleast_1d(d.get("rho_im", np.zeros_like(re)))
            coeffs = tuple(re + 1j * np.asarray(im, dtype=float))
            w = _req(d, "window", "block")
            blocks.append(Complex2D(coeffs, ((w[0], w[1]), (w[2], w[3]))))
        else:
            raise ConfigError(f"unknown block kind {kind!r}")
    if not blocks:
        raise ConfigError("scenario needs at least one [block] section")
    return CompatiblePairSpec(tuple(blocks),
                              name=str(cfg.opt("name", "pair")))


def _const_blocks(cfg):
    out = []
    sec = "constant_block"
    for d in cfg.blocks(sec):
        sig = d.get("signature", [])
        sig = sig if isinstance(sig, list) else [sig]
        out.append(ConstantBlock(
            _key_num(_req(d, "c", sec), "c", sec),
            _key_num(_req(d, "dim", sec), "dim", sec, int),
            tuple(_key_num(s, "signature", sec, int) for s in sig)))
    return tuple(out)


def _csv_write(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def run_quotient_pair(cfg, args, scale):
    spec = _pair_spec(cfg)
    qp = build_quotient_pair(spec)
    pts = _grid(cfg, args).points(qp.window)
    f = qp.eval(pts, order=2)
    rep = ResidualReport(title="quotient-pair")
    rep.extend(proj_residual(f.h, f.L, tol=_tol(cfg, scale, "proj")))
    rep.extend(commuting_gradients_residual(f, tol=_tol(cfg, scale, "dual")))
    rep.extend(mu_hat_duality_residual(f, tol=_tol(cfg, scale, "dual")))
    return rep, {}


def _kahler_chart_checks(chart, cfg, args, scale, consts):
    pts = _grid(cfg, args).points(chart.window)
    fl = chart.eval(pts, order=2)
    rep = ResidualReport(title=chart.name)
    eps = _num(cfg, "defect.omega_eps", 0.0)
    if eps:
        w = fl.omega
        coeffs = [c.copy() for c in w.c]
        x0 = pts[:, 0]
        i, j = 1, 2
        coeffs[0][:, i, j] += eps * x0
        coeffs[0][:, j, i] -= eps * x0
        coeffs[1][:, i, j, 0] += eps
        coeffs[1][:, j, i, 0] -= eps
        fl = fl.replace(omega=Jet(w.dim, w.order, coeffs))
    rep.extend(check_kahler(fl, tol=_tol(cfg, scale, "kahler")))
    rep.extend(cproj_residual(fl, tol=_tol(cfg, scale, "cproj")))
    rep.extend(eigenvector_gradient_residual(fl, tol=_tol(cfg, scale,
                                                          "aonk")))
    ks = build_canonical_killing(fl, consts)
    rep.extend(killing_property_suite(ks, fl, tol=_tol(cfg, scale, "killing")))
    rep.extend(a_on_k_recurrence(ks, fl, tol=_tol(cfg, scale, "aonk")))
    rep.extend(ricci_identity_check(fl, tol=_tol(cfg, scale, "ricci")))
    # zero eigenvalues block the inverse; a constant shift of A solves the
    # same equation and clears the spectrum
    c0 = spectrum_safe_shift(fl)
    shifted = fl if c0 == 0.0 else fl.replace(A=shift_endo(fl.A, c0))
    note = f"shift={c0:g}" if c0 else ""
    ham = hamiltonian_killing_check(shifted,
                                    tol=_tol(cfg, scale, "killing"))
    for e in ham.entries:
        e.note = note
    rep.extend(ham)
    ghat = partner_metric(shifted.g, shifted.A)
    Arec = recover_endo(shifted.g, ghat)
    rt = max_abs(Arec.c[0] - shifted.A.c[0]) \
        / (1.0 + max_abs(shifted.A.c[0]))
    rep.add(CheckEntry("partner_roundtrip", "recover(partner(g,A))=A",
                       rt, _tol(cfg, scale, "roundtrip"),
                       samples=pts.shape[0], note=note))
    cd = connection_difference_check(shifted, ghat,
                                     tol=_tol(cfg, scale, "cproj"))
    for e in cd.entries:
        e.note = note
    rep.extend(cd)
    return rep, fl


def run_lift(cfg, args, scale):
    spec = _pair_spec(cfg)
    qp = build_quotient_pair(spec)
    cb = _const_blocks(cfg)
    route = str(cfg.opt("route", "jacobian"))
    chart = lift_pair(qp, cb=cb, route=route,
                      name=str(cfg.opt("name", "lift")))
    consts = [(b.c, b.dim // 2) for b in cb]
    rep, _ = _kahler_chart_checks(chart, cfg, args, scale, consts)
    return rep, {}


def run_main_example(cfg, args, scale):
    spec = _pair_spec(cfg)
    cb = _const_blocks(cfg)
    chart = build_main_example(spec, cb=cb,
                               name=str(cfg.opt("name", "main-example")))
    consts = [(b.c, b.dim // 2) for b in cb]
    rep, fl = _kahler_chart_checks(chart, cfg, args, scale, consts)
    # route agreement against the Jacobian construction
    alt = lift_pair(chart.qp, cb=cb, route="jacobian")
    pts = _grid(cfg, args).points(chart.window)
    fa = alt.eval(pts, order=1)
    fb = chart.eval(pts, order=1)
    dev = max(max_abs(fa.g.c[0] - fb.g.c[0]),
              max_abs(fa.omega.c[0] - fb.omega.c[0]),
              max_abs(fa.J.c[0] - fb.J.c[0]),
              max_abs(fa.A.c[0] - fb.A.c[0]))
    rep.add(CheckEntry("route_agreement", "explicit == jacobian route",
                       dev / (1.0 + max_abs(fb.g.c[0])),
                       _tol(cfg, scale, "roundtrip"),
                       samples=pts.shape[0]))
    return rep, {}


def run_mobility2(cfg, args, scale):
    ell = _num(cfg, "ell", 1, int)
    a = cfg.opt("a", 1.0)
    C = _num(cfg, "C", -1.0)
    cb = _const_blocks(cfg)
    chart = build_mobility2(ell, a, C, cb=cb,
                            name=str(cfg.opt("name", "mobility2")))
    consts = [(b.c, b.dim // 2) for b in cb]
    rep, fl = _kahler_chart_checks(chart, cfg, args, scale, consts)
    rep.add(CheckEntry("v_fit", "off-leaf reconstruction residual",
                       chart.meta["v_fit_residual"],
                       _tol(cfg, scale, "lie"),
                       note="reconstructed, residual-certified"))
    rep.extend(lie_residual_suite(chart, tol=_tol(cfg, scale, "lie")))
    if ell == 1:
        rep.extend(transport_check(chart,
                                   tol=_tol(cfg, scale, "transport")))
        rep.extend(volume_coefficient(chart,
                                      tol=_tol(cfg, scale, "volume")))
    return rep, {}


def run_jordan(cfg, args, scale):
    kind = str(cfg.opt("kind", "2x2"))
    n2 = _num(cfg, "n2", 2)
    C = _num(cfg, "C", -1.5)
    init = np.atleast_1d(cfg.opt("init", [0.5, 0.1]))
    lo, hi = cfg.opt("interval", [0.2, 0.8])
    sol = solve_jordan_odes(kind, n2, C, init, (lo, hi))
    rep = ResidualReport(title=f"jordan-{kind}")
    rep.add(CheckEntry("ode_defect", "dense-output integral defect",
                       sol.defect(), _tol(cfg, scale, "ode")))
    if kind == "3x3":
        rep.add(CheckEntry("g1_constancy", "G1' = 0",
                           sol.g1_constancy(), 1e-12 * scale))
    spec = jordan_pair_spec(kind, sol,
                            x_window=tuple(cfg.opt("x_window", [1.2, 1.8])))
    qp = build_quotient_pair(spec)
    pts = _grid(cfg, args).points(qp.window)
    f = qp.eval(pts, order=2)
    rep.extend(proj_residual(f.h, f.L, tol=_tol(cfg, scale, "proj")))
    # split Lie equations on the block
    from .geometry import lie_endo, lie_metric
    trL = np.trace(f.L.c[0], axis1=-2, axis2=-1)
    rhs_L = f.L.c[0] - np.einsum("nab,nbc->nac", f.L.c[0], f.L.c[0])
    hL = np.einsum("nac,ncb->nab", f.h.c[0], f.L.c[0])
    rhs_h = (n2 - 1.0) * hL - (trL + C + n2)[:, None, None] * f.h.c[0]
    rL = max_abs(lie_endo(f.L, f.v) - rhs_L) / (1.0 + max_abs(rhs_L))
    rh = max_abs(lie_metric(f.h, f.v) - rhs_h) / (1.0 + max_abs(rhs_h))
    rep.add(CheckEntry("split_lie_endo", "L_v L = L - L^2", rL,
                       _tol(cfg, scale, "pde_split"), samples=len(pts)))
    rep.add(CheckEntry("split_lie_metric",
                       "L_v h = (n2-1) hL - (tr L + C + n2) h", rh,
                       _tol(cfg, scale, "pde_split"), samples=len(pts)))
    # the commutator identity and the closed-form curvature eigenvalue
    # against the assembled operator at a few samples
    from .curvspec import (fit_real_poly, real_curvature_operator_matrix,
                           real_ricci_identity_check)
    from .flows import jordan2_fprime, jordan3_fprime
    rep.extend(real_ricci_identity_check(f.h, f.L,
                                         tol=_tol(cfg, scale, "ricci")))
    worst = 0.0
    for s in range(min(3, len(pts))):
        coef, fit_res = fit_real_poly(f.h, f.L, sample=s)
        r1 = pts[s, 1] if kind == "2x2" else pts[s, 2]
        if kind == "2x2":
            val = jordan2_fprime(sol, pts[s, 0], r1)
        else:
            val = jordan3_fprime(sol, pts[s, 1], r1)
        eigs = np.linalg.eigvals(real_curvature_operator_matrix(f.h, s))
        worst = max(worst,
                    float(np.min(np.abs(eigs - val))) / (1.0 + abs(val)))
    rep.add(CheckEntry("blowup_formula_vs_spectrum",
                       "closed-form eigenvalue in spec(R)", worst,
                       _tol(cfg, scale, "spectrum"), samples=3))
    # divergence scan toward F + x = 0
    rho1 = 0.5 * (lo + hi)
    s = np.geomspace(1e-1, 1e-4, 16)
    vals = blowup_scan("jordan2" if kind == "2x2" else "jordan3", s,
                       sol=sol, rho1=rho1)
    expo = -tail_exponent(s, vals)
    target = 3.0 if kind == "2x2" else 2.0
    rep.add(CheckEntry("blowup_exponent",
                       f"divergence exponent {target:g}",
                       abs(expo - target), 0.1 * scale,
                       note=f"measured={expo:.4f}"))
    csv = {"jordan_scan": (["s", "value"],
                           [(si, vi) for si, vi in zip(s, vals)])}
    return rep, csv


def run_flows(cfg, args, scale):
    rep = ResidualReport(title="flows")
    csv = {}
    seeds = {"rho^2+1": 0.3 + 0.4j, "rho(1-rho)": 0.5 + 0.3j,
             "rho^2": 0.4 + 0.3j}
    T = _num(cfg, "T", 6.0)
    for ode, r0 in seeds.items():
        traj = eigenvalue_flow(ode, r0, T)
        back = eigenvalue_flow(ode, r0, -T)
        z = np.concatenate([back.x[::-1, 0], traj.x[:, 0]])
        c, r, resid = circle_fit(z)
        rep.add(CheckEntry(f"circle_{ode}", "complex orbit is a circle",
                           resid / (1.0 + r), 1e-6 * scale,
                           samples=z.size))
        fp_err = 0.0
        for p in fixed_points(ode):
            f = {"rho^2+1": lambda q: q * q + 1,
                 "rho(1-rho)": lambda q: q * (1 - q),
                 "rho^2": lambda q: q * q}[ode](p)
            fp_err = max(fp_err, abs(f))
        rep.add(CheckEntry(f"fixed_points_{ode}", "flow fixed points",
                           fp_err, 1e-12))
        tag = ode.replace("^", "").replace("(", "_").replace(")", "")
        csv[f"portrait_{tag}"] = (
            ["t", "re", "im"],
            [(t, zz.real, zz.imag) for t, zz in zip(traj.t, traj.x[:, 0])])
    traj = eigenvalue_flow("rho(1-rho)", 0.5, 5.0)
    err = abs(traj.x[-1, 0].real - logistic(0.5, 5.0))
    rep.add(CheckEntry("logistic_endpoint", "closed-form endpoint", err,
                       1e-8 * scale))
    return rep, csv


def run_appendix(cfg, args, scale):
    rep = ResidualReport(title="appendix")
    chart = build_mobility2(2, 1.0, _num(cfg, "C", -1.5), fit_v=False)
    rng = np.random.default_rng(_num(cfg, "seed", 0, int))
    pts = chart.window.random(8, rng)
    fl = chart.eval(pts, order=2)
    rep.extend(ricci_identity_check(fl, tol=_tol(cfg, scale, "ricci")))
    rep.extend(compare_with_numeric(fl, sample=0,
                                    tol=_tol(cfg, scale, "spectrum")))
    prof = chart.qp.blocks[0].F
    rep.extend(fppp_limit_check(prof, 0.5, tol=1e-3 * scale))
    # symmetric-function gates
    rho = np.array([0.21, 0.47, 0.83])
    dev = abs(sum_over_delta(lambda t: np.exp(t), rho)
              - det_quotient(lambda t: np.exp(t), rho))
    rep.add(CheckEntry("vandermonde_sum_vs_det", "sum equals det quotient",
                       dev, _tol(cfg, scale, "vandermonde")))
    lim = collision_limit(lambda t: t.exp() if isinstance(t, Jet)
                          else np.exp(t), 0.0, 3)
    rep.add(CheckEntry("collision_limit", "k''(0)/2!", abs(lim - 0.5),
                       1e-12))
    return rep, {}


RUNNERS = {
    "quotient-pair": run_quotient_pair,
    "lift": run_lift,
    "main-example": run_main_example,
    "mobility2": run_mobility2,
    "jordan": run_jordan,
    "flows": run_flows,
    "appendix": run_appendix,
}

_LIFT_CHECKS = ["J_squared", "hermitian_metric", "omega_def", "domega",
                "parallel_J", "cproj_compat", "eigenvector_gradients",
                "killing_*", "a_on_k", "ricci_identity",
                "det_hessian_hermitian", "killing_detC",
                "partner_roundtrip", "connection_difference"]

# one line per check: its name (``*`` a wildcard), then the condition
# under which it runs, if any
CHECK_NAMES = {
    "quotient-pair": ["proj_compat", "commuting_gradients",
                      "mu_hat_duality"],
    "lift": _LIFT_CHECKS,
    "main-example": _LIFT_CHECKS + ["route_agreement"],
    "mobility2": _LIFT_CHECKS + [
        "v_fit", "lie_v_metric", "lie_v_endo",
        "eigenvalue_transport (ell = 1 only)",
        "volume_coefficient (ell = 1 only)"],
    "jordan": ["ode_defect", "g1_constancy (kind = 3x3 only)",
               "proj_compat", "split_lie_endo", "split_lie_metric",
               "real_ricci_identity", "blowup_formula_vs_spectrum",
               "blowup_exponent"],
    "flows": ["circle_*", "fixed_points_*", "logistic_endpoint"],
    "appendix": ["ricci_identity", "spectrum_*", "fppp_limit",
                 "vandermonde_sum_vs_det", "collision_limit"],
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cprojlab",
        description="build a chart scenario and certify its identities")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("config", type=Path)
    runp.add_argument("--grid", type=int, default=None,
                      help="override grid points per axis")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the sampling seed")
    runp.add_argument("--tol-scale", type=float, default=1.0,
                      help="scale all tolerances")
    runp.add_argument("--csv", type=Path, default=None,
                      help="directory for CSV outputs")
    runp.add_argument("--only", type=str, default=None,
                      help="comma-separated check-name filter (prefixes)")
    runp.add_argument("--list-checks", action="store_true",
                      help="list the scenario's checks and exit")
    runp.add_argument("--report", type=Path, default=None,
                      help="also write the report to this path")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.list_checks:
        for name in CHECK_NAMES[cfg.kind]:
            print(name)
        return 0

    t0 = time.monotonic()
    try:
        seed = _seed(cfg, args)
        rep, csv = RUNNERS[cfg.kind](cfg, args, args.tol_scale)
    except (ConfigError, BuilderError, GeometryError, JetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - t0

    if args.only:
        prefixes = [p.strip() for p in args.only.split(",") if p.strip()]
        rep.entries = [e for e in rep.entries
                       if any(e.name.startswith(p) for p in prefixes)]

    rep.provenance = {
        "config_hash": config_hash(serialize_config(cfg)),
        "seed": seed,
        "version": __version__,
        "scenario": cfg.kind,
    }
    body = rep.format()
    out = body + f"# timestamp={time.strftime('%Y-%m-%dT%H:%M:%S')}" \
        + f" elapsed={elapsed:.2f}s\n"
    sys.stdout.write(out)
    if args.report:
        args.report.write_text(out)
    if args.csv:
        args.csv.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in csv.items():
            _csv_write(args.csv / f"{name}.csv", header, rows)
    return 0 if rep.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
