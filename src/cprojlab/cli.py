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
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, parse_config, serialize_config
from .report import CheckEntry, ResidualReport, config_hash, fmt
from .geometry import GeometryError, GridSpec, lie_endo, lie_metric, max_abs
from .jets import Jet, JetError
from .builders import (
    BuilderError, CompatiblePairSpec, Complex2D, ConstantBlock, Real1D,
    build_mobility2, build_quotient_pair,
    jordan_pair_spec, lift_pair, solve_jordan_odes)
from .kahler import (
    check_kahler, commuting_gradients_residual, connection_difference_check,
    cproj_residual, eigenvector_gradient_residual, hamiltonian_killing_check,
    mu_hat_duality_residual, partner_metric, proj_residual, recover_endo,
    shift_endo, spectrum_safe_shift)
from .killing import a_on_k_recurrence, build_canonical_killing, killing_property_suite
from .curvspec import (
    compare_with_numeric, fppp_limit_check, real_curvature_operator_matrix,
    real_ricci_identity_check, ricci_identity_check)
from .flows import (
    blowup_scan, circle_fit, eigenvalue_flow, fixed_points, jordan2_fprime,
    jordan3_fprime, lie_residual_suite, logistic, tail_exponent,
    transport_check, volume_coefficient)
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


def _as_nums(val, what, sizes=None, kind=float):
    """``val``, one number or a list, as a list through ``_as_num``, its
    length one of ``sizes`` when given."""
    vals = val if isinstance(val, list) else [val]
    if sizes and len(vals) not in sizes:
        raise ConfigError(f"{what} needs {' or '.join(map(str, sizes))} "
                          f"values, got {len(vals)}")
    return [_as_num(v, what, kind) for v in vals]


def _num(cfg, key, default, kind=float, lo=None):
    """Option ``key`` through ``_as_num``."""
    return _as_num(cfg.opt(key, default), f"option {key!r}", kind, lo)


def _nums(cfg, key, default, sizes=None):
    """List option ``key`` through ``_as_nums``."""
    return _as_nums(cfg.opt(key, default), f"option {key!r}", sizes)


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


def _block_nums(d, key, sizes=None, default=None):
    """A list key of a ``[block]`` section through ``_as_nums``; required
    unless it has a default."""
    val = _req(d, key, "block") if default is None else d.get(key, default)
    return _as_nums(val, f"[block] key {key!r}", sizes)


def _pair_spec(cfg) -> CompatiblePairSpec:
    blocks = []
    for d in cfg.blocks("block"):
        kind = d.get("kind", "real1d")
        if kind == "real1d":
            w = _block_nums(d, "window", (2,))
            rho = _block_nums(d, "rho")
            eps = _key_num(d.get("eps", 1), "eps", "block", int)
            blocks.append(Real1D(eps, tuple(rho), tuple(w)))
        elif kind == "complex2d":
            re = np.array(_block_nums(d, "rho_re"))
            im = np.array(_block_nums(d, "rho_im", {1, len(re)}, 0.0))
            w = _block_nums(d, "window", (4,))
            blocks.append(Complex2D(tuple(re + 1j * im),
                                    ((w[0], w[1]), (w[2], w[3]))))
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
        out.append(ConstantBlock(
            _key_num(_req(d, "c", sec), "c", sec),
            _key_num(_req(d, "dim", sec), "dim", sec, int),
            tuple(_as_nums(d.get("signature", []),
                           f"[{sec}] key 'signature'", kind=int))))
    return tuple(out)


# ---------------------------------------------------------------------------
# a run and the state its steps share
# ---------------------------------------------------------------------------

class Run:
    """One scenario run: its options, the built instance and the state the
    check steps share, each piece built on first use and at most once."""
    cb = ()     # the constant blocks of a Kahler chart

    def __init__(self, cfg, args, scale):
        self.cfg, self.args, self.scale, self.csv = cfg, args, scale, {}

    def tol(self, cls):
        return _num(self.cfg, f"tol.{cls}", DEFAULT_TOLS[cls]) * self.scale

    def sample(self, inst, title=None):
        # the grid is read now, so a bad one exits 2 whichever steps run
        self.inst, self.grid = inst, _grid(self.cfg, self.args)
        return title or inst.name

    @cached_property
    def pts(self):
        return self.grid.points(self.inst.window)

    @cached_property
    def f(self):
        return self.inst.eval(self.pts, order=2)

    @cached_property
    def fl(self):
        # f with omega perturbed by defect.omega_eps * x0 dx1^dx2
        eps = _num(self.cfg, "defect.omega_eps", 0.0)
        if not eps:
            return self.f
        w = self.f.omega
        coeffs = [c.copy() for c in w.c]
        for (i, j), s in (((1, 2), eps), ((2, 1), -eps)):
            coeffs[0][:, i, j] += s * self.pts[:, 0]
            coeffs[1][:, i, j, 0] += s
        return self.f.replace(omega=Jet(w.dim, w.order, coeffs))

    @cached_property
    def ks(self):
        return build_canonical_killing(
            self.fl, [(b.c, b.dim // 2) for b in self.cb])

    @cached_property
    def shifted(self):
        # fl and its note; zero eigenvalues block the inverse, and a
        # constant shift of A solves the same equation and clears the
        # spectrum
        c0 = spectrum_safe_shift(self.fl)
        fl = self.fl if c0 == 0.0 else self.fl.replace(
            A=shift_endo(self.fl.A, c0))
        return fl, f"shift={c0:g}" if c0 else ""

    @cached_property
    def ghat(self):
        return partner_metric(self.shifted[0].g, self.shifted[0].A)


# ---------------------------------------------------------------------------
# build steps: each builds the instance and returns the report title
# ---------------------------------------------------------------------------

def _build_quotient_pair(r):
    return r.sample(build_quotient_pair(_pair_spec(r.cfg)), "quotient-pair")


def _build_lift(r, route=None, name="lift"):
    qp = build_quotient_pair(_pair_spec(r.cfg))
    r.cb = _const_blocks(r.cfg)
    chart = lift_pair(qp, cb=r.cb,
                      route=route or str(r.cfg.opt("route", "jacobian")),
                      name=str(r.cfg.opt("name", name)))
    return r.sample(chart)


def _build_mobility2(r):
    r.ell = _num(r.cfg, "ell", 1, int, lo=1)
    a = _nums(r.cfg, "a", 1.0, sorted({1, r.ell}))
    C = _num(r.cfg, "C", -1.0)
    r.cb = _const_blocks(r.cfg)
    chart = build_mobility2(r.ell, a[0] if len(a) == 1 else a, C, cb=r.cb,
                            name=str(r.cfg.opt("name", "mobility2")))
    return r.sample(chart)


def _build_jordan(r):
    r.kind = str(r.cfg.opt("kind", "2x2"))
    r.n2 = _num(r.cfg, "n2", 2)
    r.C = _num(r.cfg, "C", -1.5)
    init = _nums(r.cfg, "init", [0.5, 0.1])
    r.interval = _nums(r.cfg, "interval", [0.2, 0.8], (2,))
    r.sol = solve_jordan_odes(r.kind, r.n2, r.C, init, r.interval)
    qp = build_quotient_pair(jordan_pair_spec(r.kind, r.sol, x_window=tuple(
        _nums(r.cfg, "x_window", [1.2, 1.8], (2,)))))
    return r.sample(qp, f"jordan-{r.kind}")


def _build_flows(r):
    r.T = _num(r.cfg, "T", 6.0)
    return "flows"


def _build_appendix(r):
    r.inst = build_mobility2(2, 1.0, _num(r.cfg, "C", -1.5), fit_v=False)
    rng = np.random.default_rng(_num(r.cfg, "seed", 0, int))
    r.pts = r.inst.window.random(8, rng)
    return "appendix"


# ---------------------------------------------------------------------------
# check steps that are more than one suite call
# ---------------------------------------------------------------------------

def _noted(rep, r):
    for e in rep.entries:
        e.note = r.shifted[1]
    return rep


def _partner_roundtrip(r):
    fl, note = r.shifted
    Arec = recover_endo(fl.g, r.ghat)
    rt = max_abs(Arec.c[0] - fl.A.c[0]) / (1.0 + max_abs(fl.A.c[0]))
    return [CheckEntry("partner_roundtrip", "recover(partner(g,A))=A", rt,
                       r.tol("roundtrip"), samples=len(r.pts), note=note)]


def _route_agreement(r):
    # the explicit chart against the Jacobian construction
    fa = lift_pair(r.inst.qp, cb=r.cb, route="jacobian").eval(r.pts, order=1)
    fb = r.inst.eval(r.pts, order=1)
    dev = max(max_abs(getattr(fa, k).c[0] - getattr(fb, k).c[0])
              for k in ("g", "omega", "J", "A")) / (1.0 + max_abs(fb.g.c[0]))
    return [CheckEntry("route_agreement", "explicit == jacobian route", dev,
                       r.tol("roundtrip"), samples=len(r.pts))]


def _split_lie(r):
    # the split Lie equations on the block
    f, tol = r.f, r.tol("pde_split")
    h, L = f.h.c[0], f.L.c[0]
    trL = np.trace(L, axis1=-2, axis2=-1)
    rhs_L = L - np.einsum("nab,nbc->nac", L, L)
    hL = np.einsum("nac,ncb->nab", h, L)
    rhs_h = (r.n2 - 1.0) * hL - (trL + r.C + r.n2)[:, None, None] * h
    rL = max_abs(lie_endo(f.L, f.v) - rhs_L) / (1.0 + max_abs(rhs_L))
    rh = max_abs(lie_metric(f.h, f.v) - rhs_h) / (1.0 + max_abs(rhs_h))
    return [CheckEntry("split_lie_endo", "L_v L = L - L^2", rL, tol,
                       samples=len(r.pts)),
            CheckEntry("split_lie_metric",
                       "L_v h = (n2-1) hL - (tr L + C + n2) h", rh, tol,
                       samples=len(r.pts))]


def _blowup_spectrum(r):
    # the closed-form curvature eigenvalue against the assembled operator
    # at a few samples
    dev = []
    for s, p in enumerate(r.pts[:3]):
        val = (jordan2_fprime(r.sol, p[0], p[1]) if r.kind == "2x2"
               else jordan3_fprime(r.sol, p[1], p[2]))
        eigs = np.linalg.eigvals(real_curvature_operator_matrix(r.f.h, s))
        dev.append(float(np.min(np.abs(eigs - val))) / (1.0 + abs(val)))
    return [CheckEntry("blowup_formula_vs_spectrum",
                       "closed-form eigenvalue in spec(R)", max(dev),
                       r.tol("spectrum"), samples=3)]


def _blowup_exponent(r):
    # divergence scan toward F + x = 0
    s = np.geomspace(1e-1, 1e-4, 16)
    vals = blowup_scan("jordan2" if r.kind == "2x2" else "jordan3", s,
                       sol=r.sol, rho1=0.5 * (r.interval[0] + r.interval[1]))
    expo = -tail_exponent(s, vals)
    target = 3.0 if r.kind == "2x2" else 2.0
    r.csv["jordan_scan"] = (["s", "value"], list(zip(s, vals)))
    return [CheckEntry("blowup_exponent", f"divergence exponent {target:g}",
                       abs(expo - target), 0.1 * r.scale,
                       note=f"measured={expo:.4f}")]


# the scalar flows: initial value and right-hand side
_FLOWS = {"rho^2+1": (0.3 + 0.4j, lambda q: q * q + 1),
          "rho(1-rho)": (0.5 + 0.3j, lambda q: q * (1 - q)),
          "rho^2": (0.4 + 0.3j, lambda q: q * q)}


def _orbits(r):
    out = []
    for ode, (r0, rhs) in _FLOWS.items():
        traj = eigenvalue_flow(ode, r0, r.T)
        back = eigenvalue_flow(ode, r0, -r.T)
        z = np.concatenate([back.x[::-1, 0], traj.x[:, 0]])
        _, rad, resid = circle_fit(z)
        fp_err = max([0.0] + [abs(rhs(p)) for p in fixed_points(ode)])
        out += [CheckEntry(f"circle_{ode}", "complex orbit is a circle",
                           resid / (1.0 + rad), 1e-6 * r.scale,
                           samples=z.size),
                CheckEntry(f"fixed_points_{ode}", "flow fixed points",
                           fp_err, 1e-12)]
        tag = ode.replace("^", "").replace("(", "_").replace(")", "")
        r.csv[f"portrait_{tag}"] = (
            ["t", "re", "im"],
            [(t, zz.real, zz.imag) for t, zz in zip(traj.t, traj.x[:, 0])])
    return out


def _logistic_endpoint(r):
    traj = eigenvalue_flow("rho(1-rho)", 0.5, 5.0)
    err = abs(traj.x[-1, 0].real - logistic(0.5, 5.0))
    return [CheckEntry("logistic_endpoint", "closed-form endpoint", err,
                       1e-8 * r.scale)]


def _symmetric_functions(r):
    rho = np.array([0.21, 0.47, 0.83])
    dev = abs(sum_over_delta(np.exp, rho) - det_quotient(np.exp, rho))
    lim = collision_limit(lambda t: t.exp() if isinstance(t, Jet)
                          else np.exp(t), 0.0, 3)
    return [CheckEntry("vandermonde_sum_vs_det", "sum equals det quotient",
                       dev, r.tol("vandermonde")),
            CheckEntry("collision_limit", "k''(0)/2!", abs(lim - 0.5),
                       1e-12)]


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------

class Step(NamedTuple):
    """The names a check step emits, space-separated (``*`` a wildcard
    suffix), its function of the ``Run`` and its run condition, if any."""
    names: str
    emit: Callable
    when: tuple = ()


KAHLER_STEPS = (
    Step("J_squared hermitian_metric omega_def domega parallel_J",
         lambda r: check_kahler(r.fl, tol=r.tol("kahler"))),
    Step("cproj_compat", lambda r: cproj_residual(r.fl, tol=r.tol("cproj"))),
    Step("eigenvector_gradients",
         lambda r: eigenvector_gradient_residual(r.fl, tol=r.tol("aonk"))),
    Step("killing_*",
         lambda r: killing_property_suite(r.ks, r.fl, tol=r.tol("killing"))),
    Step("a_on_k", lambda r: a_on_k_recurrence(r.ks, r.fl, tol=r.tol("aonk"))),
    Step("ricci_identity",
         lambda r: ricci_identity_check(r.fl, tol=r.tol("ricci"))),
    Step("det_hessian_hermitian killing_detC", lambda r: _noted(
        hamiltonian_killing_check(r.shifted[0], tol=r.tol("killing")), r)),
    Step("partner_roundtrip", _partner_roundtrip),
    Step("connection_difference", lambda r: _noted(connection_difference_check(
        r.shifted[0], r.ghat, tol=r.tol("cproj")), r)),
)

PROJ_STEP = Step("proj_compat",
                 lambda r: proj_residual(r.f.h, r.f.L, tol=r.tol("proj")))

# scenario kind -> (build step, check steps in report order)
SCENARIOS = {
    "quotient-pair": (_build_quotient_pair, (
        PROJ_STEP,
        Step("commuting_gradients", lambda r: commuting_gradients_residual(
            r.f, tol=r.tol("dual"))),
        Step("mu_hat_duality",
             lambda r: mu_hat_duality_residual(r.f, tol=r.tol("dual"))))),
    "lift": (_build_lift, KAHLER_STEPS),
    "main-example": (
        partial(_build_lift, route="explicit", name="main-example"),
        KAHLER_STEPS + (Step("route_agreement", _route_agreement),)),
    "mobility2": (_build_mobility2, KAHLER_STEPS + (
        Step("v_fit", lambda r: [CheckEntry(
            "v_fit", "off-leaf reconstruction residual",
            r.inst.meta["v_fit_residual"], r.tol("lie"),
            note="reconstructed, residual-certified")]),
        Step("lie_v_metric lie_v_endo",
             lambda r: lie_residual_suite(r.inst, tol=r.tol("lie"))),
        Step("eigenvalue_transport", lambda r: transport_check(
            r.inst, tol=r.tol("transport")), ("ell", 1)),
        Step("volume_coefficient", lambda r: volume_coefficient(
            r.inst, tol=r.tol("volume")), ("ell", 1)))),
    "jordan": (_build_jordan, (
        Step("ode_defect", lambda r: [CheckEntry(
            "ode_defect", "dense-output integral defect", r.sol.defect(),
            r.tol("ode"))]),
        Step("g1_constancy", lambda r: [CheckEntry(
            "g1_constancy", "G1' = 0", r.sol.g1_constancy(),
            1e-12 * r.scale)], ("kind", "3x3")),
        PROJ_STEP,
        Step("split_lie_endo split_lie_metric", _split_lie),
        Step("real_ricci_identity", lambda r: real_ricci_identity_check(
            r.f.h, r.f.L, tol=r.tol("ricci"))),
        Step("blowup_formula_vs_spectrum", _blowup_spectrum),
        Step("blowup_exponent", _blowup_exponent))),
    "flows": (_build_flows, (
        Step("circle_* fixed_points_*", _orbits),
        Step("logistic_endpoint", _logistic_endpoint))),
    "appendix": (_build_appendix, (
        Step("ricci_identity",
             lambda r: ricci_identity_check(r.f, tol=r.tol("ricci"))),
        Step("spectrum_*", lambda r: compare_with_numeric(
            r.f, sample=0, tol=r.tol("spectrum"))),
        Step("fppp_limit", lambda r: fppp_limit_check(
            r.inst.qp.blocks[0].F, 0.5, tol=1e-3 * r.scale)),
        Step("vandermonde_sum_vs_det collision_limit",
             _symmetric_functions))),
}


def _may_start(pattern, prefix):
    # whether a name that pattern matches can start with prefix
    lit, star, _ = pattern.partition("*")
    return lit.startswith(prefix) or bool(star) and prefix.startswith(lit)


def run_scenario(cfg, args, scale, only=None):
    """Build the instance, then run the steps whose condition holds and that
    can emit a name starting with a prefix in ``only``, if that is given."""
    build, steps = SCENARIOS[cfg.kind]
    r = Run(cfg, args, scale)
    rep = ResidualReport(title=build(r))
    for st in steps:
        if st.when and getattr(r, st.when[0]) != st.when[1]:
            continue
        if only is None or any(_may_start(n, p)
                               for n in st.names.split() for p in only):
            out = st.emit(r)
            rep.entries += [e for e in getattr(out, "entries", out)
                            if only is None or e.name.startswith(only)]
    return rep, r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cprojlab", description="build a "
                                 "chart scenario and certify its identities")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("config", type=Path)
    runp.add_argument("--grid", type=int, help="override grid points per axis")
    runp.add_argument("--seed", type=int, help="override the sampling seed")
    runp.add_argument("--tol-scale", type=float, default=1.0,
                      help="scale all tolerances")
    runp.add_argument("--csv", type=Path, help="directory for CSV outputs")
    runp.add_argument("--only", type=str, default=None,
                      help="comma-separated check-name filter (prefixes)")
    runp.add_argument("--list-checks", action="store_true",
                      help="list the scenario's checks and exit")
    runp.add_argument("--report", type=Path, default=None,
                      help="also write the report to this path")
    args = ap.parse_args(argv)

    only = (tuple(p.strip() for p in args.only.split(",") if p.strip())
            if args.only else None)
    try:
        cfg = parse_config(args.config)
        if args.list_checks:
            for st in SCENARIOS[cfg.kind][1]:
                cond = " ({} = {} only)".format(*st.when) if st.when else ""
                print("\n".join(name + cond for name in st.names.split()))
            return 0
        t0 = time.monotonic()
        seed = _seed(cfg, args)
        rep, run = run_scenario(cfg, args, args.tol_scale, only)
    except (ConfigError, OSError, BuilderError, GeometryError,
            JetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - t0

    rep.provenance = {"config_hash": config_hash(serialize_config(cfg)),
                      "seed": seed, "version": __version__,
                      "scenario": cfg.kind}
    out = (rep.format() + f"# timestamp={time.strftime('%Y-%m-%dT%H:%M:%S')}"
           f" elapsed={elapsed:.2f}s\n")
    sys.stdout.write(out)
    if args.report:
        args.report.write_text(out)
    if args.csv:
        args.csv.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in run.csv.items():
            lines = [header] + [[fmt(x) for x in row] for row in rows]
            (args.csv / f"{name}.csv").write_text(
                "".join(",".join(line) + "\n" for line in lines))
    return 0 if rep.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
