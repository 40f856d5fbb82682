"""Scenario runner: parse a config, check it against the scenario's option
table, build the instance, run check suites, emit a deterministic report
and optional CSV data.

Exit codes: 0 when every selected check passes, 1 when a check fails,
2 on a bad config, an ``--only`` that selects no check or an instance
that cannot be built or checked (a singular or overflowing metric, a
vanishing det L): a ``report.Error``, whose line names the first sample
of the run that a guard refuses, if the guard decides at each sample.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import (
    FLOATS, INTS, WINDOW, ConfigError, Opt, parse_config, serialize_config)
from .report import CheckEntry, Error, ResidualReport, config_hash, fmt
from .geometry import GridSpec, max_abs, max_abs_at, nan_max
from .jets import Jet
from .builders import (
    BuilderError, CompatiblePairSpec, Complex2D, ConstantBlock, Real1D,
    _sample_blocks, build_mobility2, build_quotient_pair, jordan_pair_spec,
    lift_pair, mobility_spec, shift_endo, solve_jordan_odes)
from .kahler import (
    check_kahler, commuting_gradients_residual,
    connection_difference_check, cproj_residual, eigenvector_gradient_residual,
    hamiltonian_killing_check, mu_hat_duality_residual, partner_fields,
    proj_residual, recover_endo, spectrum_safe_shift)
from .killing import (
    KILLING_CHECKS, a_on_k_recurrence, build_canonical_killing,
    killing_property_suite)
from .curvspec import (
    compare_with_numeric, curvature_operator_matrix, fppp_limit_check,
    real_ricci_identity_check, ricci_identity_check)
from .flows import (
    circle_fit, eigenvalue_flow, jordan2_fprime, jordan3_fprime,
    lie_residual_suite, split_lie_suite, tail_exponent, transport_check,
    volume_coefficient)

# the one sample cap: a run's time grows as its sample count
# n = grid**dim + random times max(dim, 8)**4, and n * max(dim, 8)**4 <=
# MAX_SAMPLES * 8**4 bounds it (n <= MAX_SAMPLES up to dim 8).  A run,
# refused or not, holds one block of samples and the values of A at all
# n, so its memory hardly grows with n: at the cap, a 6-dim chart
# (mobility2 with random = 4271) peaks at 51 MB RSS and 15.5 MB traced,
# in 1.0 s
MAX_SAMPLES = 5000


def _pair_spec(v) -> CompatiblePairSpec:
    blocks = []
    for b in v["block"]:
        w = b["window"]
        if b["kind"] == "real1d":
            blocks.append(Real1D(b["eps"], tuple(b["rho"]), tuple(w)))
        else:
            z = np.array(b["rho_re"]) + 1j * np.array(b["rho_im"])
            blocks.append(Complex2D(tuple(z), ((w[0], w[1]), (w[2], w[3]))))
    return CompatiblePairSpec(tuple(blocks), name=v["name"])


# ---------------------------------------------------------------------------
# a run and the state its steps share
# ---------------------------------------------------------------------------

class Run:
    """One scenario run: its typed values, the built instance and the state
    the check steps share, each piece built on first use and at most once.
    Its samples ``pts`` are checked a block ``rows`` at a time (all until
    ``check`` sets it): the block's order-2 fields ``f`` (``fl`` with the
    seeded omega defect), Killing set ``ks`` and partner ``ghat`` go with
    the block; the spectrum's ``shift`` is one number for the run."""

    def __init__(self, v):
        self.v, self.csv, self.rows = v, {}, slice(None)

    def sample(self, inst, title=None):
        grid, rnd, dim = self.v["grid"], self.v["random"], inst.window.dim
        n, w = grid ** dim + rnd, max(dim, 8)
        if n * w ** 4 > MAX_SAMPLES * 8 ** 4:
            raise ConfigError(
                f"'grid' = {grid} and 'random' = {rnd} draw {n} samples of a "
                f"{dim}-dim chart, which need more time than a run may "
                f"take ({n} * {w}**4 > {MAX_SAMPLES} * 8**4)")
        self.inst = inst
        return title or inst.name

    @cached_property
    def pts(self):
        grid = GridSpec(self.v["grid"], self.v["random"], self.v["seed"])
        return grid.points(self.inst.window)

    @cached_property
    def f(self):
        # the block's one order-2 evaluation; a metric that overflows at
        # extreme profile scales is refused here, for every scenario
        f = self.inst.eval(self.pts[self.rows], order=2)
        finite = np.isfinite(max_abs_at(*f.g.c))
        if not finite.all():
            raise BuilderError("the metric or its derivatives are not "
                               "finite", int(np.argmin(finite)))
        return f

    @cached_property
    def fl(self):
        # f with omega perturbed by defect.omega_eps * x0 dx1^dx2
        eps = self.v["defect.omega_eps"]
        if not eps:
            return self.f
        w = self.f.omega
        coeffs = [c.copy() for c in w.c]
        for (i, j), s in (((1, 2), eps), ((2, 1), -eps)):
            coeffs[0][:, i, j] += s * self.pts[self.rows, 0]
            coeffs[1][:, i, j, 0] += s
        return dataclasses.replace(self.f,
                                   omega=Jet(w.dim, w.order, coeffs))

    @cached_property
    def cb(self):
        # the constant blocks of a Kahler chart
        return tuple(ConstantBlock(b["c"], b["dim"], tuple(b["signature"]))
                     for b in self.v["constant_block"])

    @cached_property
    def ks(self):
        return build_canonical_killing(self.fl, self.inst.const_eigs)

    @cached_property
    def shift(self):
        # zero eigenvalues block the inverse, and A + shift Id solves the
        # same equation and clears the spectrum; the omega defect leaves A
        # as it is
        return spectrum_safe_shift(self.inst.eval(self.pts, order=0))

    @cached_property
    def ghat(self):
        # the partner metric's chart fields, its det and inverse kept, of
        # A + shift Id; partner_fields cuts its input to the order its
        # readers take
        return partner_fields(dataclasses.replace(
            self.fl, A=shift_endo(self.fl.A, self.shift)))

    def check(self, steps):
        """Each step's entries of each block of samples, merged into the
        run's; a step marked ``once`` runs on the first.  An Error that
        names a sample of its block names it as the run counts it."""
        d = self.inst.window.dim if hasattr(self, "inst") else 0
        blocks = _sample_blocks(len(self.pts), 8 * d * d * (1 + d + d * d)
                                ) if d else [slice(0, None)]  # order-2 field
        outs = [[] for _ in steps]
        for b, self.rows in enumerate(blocks):
            for name in ("f", "fl", "ks", "ghat"):
                self.__dict__.pop(name, None)
            try:
                for st, out in zip(steps, outs):
                    if not (b and st.once):
                        new = list(getattr(new := st.emit(self), "entries",
                                           new))
                        out[:] = [e.merge(x) for e, x in
                                  zip(out, new, strict=True)] if b else new
            except Error as exc:
                if exc.sample is not None:
                    exc.sample += self.rows.start
                raise
        return outs


# ---------------------------------------------------------------------------
# build steps: each builds the instance and returns the report title
# ---------------------------------------------------------------------------

def _build_quotient_pair(r):
    return r.sample(build_quotient_pair(_pair_spec(r.v)), "quotient-pair")


def _build_lift(r):
    chart = lift_pair(build_quotient_pair(_pair_spec(r.v)), cb=r.cb,
                      route=r.v["route"], name=r.v["name"])
    return r.sample(chart)


def _build_mobility2(r):
    a = r.v["a"]
    chart = build_mobility2(r.v["ell"], a[0] if len(a) == 1 else a, r.v["C"],
                            cb=r.cb, name=r.v["name"])
    return r.sample(chart)


def _build_jordan(r):
    v = r.v
    r.sol = solve_jordan_odes(v["kind"], v["n2"], v["C"], v["init"],
                              v["interval"])
    qp = build_quotient_pair(jordan_pair_spec(
        r.sol, x_window=tuple(v["x_window"])))
    return r.sample(qp, f"jordan-{v['kind']}")


def _build_appendix(r):
    r.inst = lift_pair(build_quotient_pair(mobility_spec(2, 1.0, r.v["C"])),
                       route="explicit")
    rng = np.random.default_rng(r.v["seed"])
    r.pts = r.inst.window.random(8, rng)
    return "appendix"


# ---------------------------------------------------------------------------
# check steps that are more than one suite call
# ---------------------------------------------------------------------------

def _noted(entries, r):
    # the shifted-spectrum steps' entries, each noted with the shift
    for e in entries:
        e.note = f"shift={r.shift:g}" if r.shift else ""
    return entries


def _partner_roundtrip(r):
    A = shift_endo(r.fl.A.truncate(0), r.shift).c[0]
    Arec = recover_endo(r.fl, r.ghat)
    return _noted([CheckEntry.of(
        "partner_roundtrip", "recover(partner(g,A))=A",
        [(max_abs(Arec.c[0] - A), max_abs(A))], 1e-9, samples=len(A))], r)


# the lift route a chart was not built by
OTHER_ROUTE = {"jacobian": "explicit", "explicit": "jacobian"}


def _route_agreement(r):
    # the run's chart against the one the other route builds: the values
    # and first derivatives of g, J and A and the values of omega, each
    # relative to the size of that field at that order
    fa = lift_pair(r.inst.qp, cb=r.cb, route=OTHER_ROUTE[r.v["route"]]
                   ).eval(r.pts[r.rows], order=1)
    terms = [(max_abs(getattr(fa, k).c[o] - b), max_abs(b))
             for k, orders in (("g", 2), ("omega", 1), ("J", 2), ("A", 2))
             for o, b in enumerate(getattr(r.f, k).c[:orders])]
    return [CheckEntry.of("route_agreement", "explicit == jacobian route",
                          terms, 1e-9, samples=len(fa.g.c[0]))]


def _blowup_spectrum(r):
    # the closed-form curvature eigenvalue against the assembled operator
    # at the run's first three samples
    dev, pts = [], r.pts[:3]
    f = r.inst.eval(pts, order=2)
    for s, p in enumerate(pts):
        val = (jordan2_fprime(r.sol, p[0], p[1]) if r.v["kind"] == "2x2"
               else jordan3_fprime(r.sol, p[1], p[2]))
        eigs = np.linalg.eigvals(curvature_operator_matrix(f, s)[0])
        dev.append(float(np.min(np.abs(eigs - val))) / (1.0 + abs(val)))
    return [CheckEntry("blowup_formula_vs_spectrum",
                       "closed-form eigenvalue in spec(R)", nan_max(*dev),
                       1e-5, samples=len(pts))]


def _blowup_exponent(r):
    # divergence scan toward F + x = 0 at x = -F(rho1) + s; the 3x3 block
    # reads x2 = x / 2
    s = np.geomspace(1e-1, 1e-4, 16)
    two, (lo, hi) = r.v["kind"] == "2x2", r.v["interval"]
    rho1 = 0.5 * (lo + hi)
    x = -r.sol(rho1) + s
    vals = (jordan2_fprime(r.sol, x, rho1) if two
            else jordan3_fprime(r.sol, x / 2.0, rho1))
    expo = -tail_exponent(s, vals)
    target = 3.0 if two else 2.0
    r.csv["jordan_scan"] = (["s", "value"], list(zip(s, vals)))
    return [CheckEntry("blowup_exponent", f"divergence exponent {target:g}",
                       abs(expo - target), 0.1,
                       note=f"measured={expo:.4f}", measured=expo)]


# the initial value of each scalar flow
_FLOWS = {"rho^2+1": 0.3 + 0.4j, "rho(1-rho)": 0.5 + 0.3j, "rho^2": 0.4 + 0.3j}


def _orbits(r):
    out = []
    for ode, r0 in _FLOWS.items():
        traj = eigenvalue_flow(ode, r0, r.v["T"])
        back = eigenvalue_flow(ode, r0, -r.v["T"])
        z = np.concatenate([back.x[::-1, 0], traj.x[:, 0]])
        _, rad, resid = circle_fit(z)
        out.append(CheckEntry(f"circle_{ode}", "complex orbit is a circle",
                              resid / (1.0 + rad), 1e-6, samples=z.size))
        tag = ode.replace("^", "").replace("(", "_").replace(")", "")
        r.csv[f"portrait_{tag}"] = (
            ["t", "re", "im"],
            [(t, zz.real, zz.imag) for t, zz in zip(traj.t, traj.x[:, 0])])
    return out


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------

class Step(NamedTuple):
    """The names a check step emits, space-separated (``*`` a wildcard
    suffix); its function of the ``Run``, which returns the entries, each
    bounded by the function that builds it (a suite's ``tol`` default or
    the number a helper step writes); its run condition, if any: a key
    and the typed value it must have; and whether it runs ``once``, on no
    block of samples (an ODE, the chart or samples of its own)."""
    names: str
    emit: Callable
    when: tuple = ()
    once: bool = False


KAHLER_STEPS = (
    Step("J_squared hermitian_metric omega_def domega parallel_J",
         lambda r: check_kahler(r.fl)),
    Step("cproj_compat", lambda r: cproj_residual(r.fl)),
    Step("eigenvector_gradients",
         lambda r: eigenvector_gradient_residual(r.fl)),
    Step(" ".join("killing_" + k for k, _ in KILLING_CHECKS),
         lambda r: killing_property_suite(r.ks, r.fl)),
    Step("a_on_k", lambda r: a_on_k_recurrence(r.ks, r.fl)),
    # R is formed for the block of samples and kept by none
    Step("ricci_identity", lambda r: ricci_identity_check(r.fl)),
    Step("det_hessian_hermitian killing_detC", lambda r: _noted(
        hamiltonian_killing_check(r.fl, r.shift).entries, r)),
    Step("partner_roundtrip", _partner_roundtrip),
    Step("connection_difference", lambda r: _noted(
        connection_difference_check(r.fl, r.ghat).entries, r)),
)

PROJ_STEP = Step("proj_compat", lambda r: proj_residual(r.f))

# the rows every scenario takes, then those of the ones that sample a
# chart, then those of the Kahler charts
COMMON = {
    "scenario": Opt(str, ""),
    "seed": Opt(int, 0, "[0, inf)"),
}
SAMPLED = {
    **COMMON,
    "grid": Opt(int, 5, "[1, inf)"),
    "random": Opt(int, 64, "[0, inf)"),
}
KAHLER = {**SAMPLED, "defect.omega_eps": Opt(float, 0.0)}
# the eigenvalue blocks of a pair, by kind, and the flat factors
BLOCK_KIND = Opt(("real1d", "complex2d"), "real1d")
BLOCKS = {
    "real1d": {
        "kind": BLOCK_KIND,
        "eps": Opt(int, 1),
        "rho": Opt(FLOATS),
        "window": Opt(WINDOW, sizes=(2,)),
    },
    "complex2d": {
        "kind": BLOCK_KIND,
        "rho_re": Opt(FLOATS),
        "rho_im": Opt(FLOATS, [0.0], sizes=(1, "rho_re")),
        "window": Opt(WINDOW, sizes=(4,)),
    },
}
CONSTANT_BLOCK = {
    "c": Opt(float),
    "dim": Opt(int, bounds="[1, 8]"),
    "signature": Opt(INTS, []),
}
# C outside [-5, 5] leaves the mobility-two profiles too ill-conditioned
# on the fixed windows: the charts turn singular or a check suite raises
MOBILITY_C = "[-5, 5]"

# scenario kind -> (build step, check steps in report order, the rows of
# its top-level keys, the sections it takes with the least count of each)
SCENARIOS = {
    "quotient-pair": (_build_quotient_pair, (
        PROJ_STEP,
        Step("commuting_gradients",
             lambda r: commuting_gradients_residual(r.f)),
        Step("mu_hat_duality", lambda r: mu_hat_duality_residual(r.f))),
        {**SAMPLED, "name": Opt(str, "pair")}, {"block": 1}),
    "lift": (_build_lift, KAHLER_STEPS + (
        Step("route_agreement", _route_agreement),), {
        **KAHLER,
        "name": Opt(str, "lift"),
        "route": Opt(tuple(OTHER_ROUTE), "jacobian"),
    }, {"block": 1, "constant_block": 0}),
    "mobility2": (_build_mobility2, KAHLER_STEPS + (
        Step("lie_v_metric lie_v_endo", lambda r: lie_residual_suite(r.inst),
             once=True),
        Step("eigenvalue_transport", lambda r: transport_check(r.inst),
             ("ell", 1), True),
        Step("volume_coefficient", lambda r: volume_coefficient(r.inst),
             ("ell", 1), True)), {
        **KAHLER,
        "name": Opt(str, "mobility2"),
        "ell": Opt(int, 1, "[1, 6]"),
        "a": Opt(FLOATS, [1.0], sizes=(1, "ell")),
        "C": Opt(float, -1.0, MOBILITY_C),
    }, {"constant_block": 0}),
    "jordan": (_build_jordan, (
        Step("ode_defect", lambda r: [CheckEntry(
            "ode_defect", "dense-output integral defect", r.sol.defect(),
            1e-9)], once=True),
        Step("g1_constancy", lambda r: [CheckEntry(
            "g1_constancy", "G1' = 0", r.sol.g1_constancy(), 1e-12)],
             ("kind", "3x3"), True),
        PROJ_STEP,
        Step("split_lie_endo split_lie_metric",
             lambda r: split_lie_suite(r.f, r.v["n2"], r.v["C"])),
        Step("real_ricci_identity", lambda r: real_ricci_identity_check(r.f)),
        Step("blowup_formula_vs_spectrum", _blowup_spectrum, once=True),
        Step("blowup_exponent", _blowup_exponent, once=True)), {
        **SAMPLED,
        "kind": Opt(("2x2", "3x3"), "2x2"),
        "n2": Opt(float, 2.0),
        "C": Opt(float, -1.5),
        "init": Opt(FLOATS, [0.5, 0.1], sizes=(2, 3)),
        "interval": Opt(WINDOW, [0.2, 0.8], sizes=(2,)),
        "x_window": Opt(WINDOW, [1.2, 1.8], sizes=(2,)),
    }, {}),
    "flows": (lambda r: "flows", (
        Step(" ".join(f"circle_{o}" for o in _FLOWS), _orbits),),
        # run time grows linearly in T
        {**COMMON, "T": Opt(float, 6.0, "(0, 100]")}, {}),
    "appendix": (_build_appendix, (
        Step("ricci_identity", lambda r: ricci_identity_check(r.f)),
        Step("spectrum_*", lambda r: compare_with_numeric(
            r.inst.eval(r.pts[:1], order=2)), once=True),
        Step("fppp_limit", lambda r: fppp_limit_check(
            r.inst.qp.blocks[0].F, 0.5), once=True)),
        {**COMMON, "C": Opt(float, -1.5, MOBILITY_C)}, {}),
}


def validate(cfg, args):
    """Check ``cfg`` and the text of the ``--seed`` flag against the
    scenario's rows before any work; return the typed values by key (a
    list of typed sections under each section name), or raise one
    ConfigError naming the first bad key and its line."""
    kind = Opt(tuple(SCENARIOS)).check(cfg.options.get("scenario"),
                                       cfg.at(None, "scenario"), {})
    opts, takes = SCENARIOS[kind][2:]
    for i, (name, _) in enumerate(cfg.sections):
        if name not in takes:
            known = " ".join(f"[{n}]" for n in takes) or "no sections"
            raise ConfigError(f"line {cfg.lines[i, None]}: unknown section "
                              f"'[{name}]'; scenario {kind!r} takes {known}")
    v = cfg.typed(opts)
    if args.seed is not None:
        v["seed"] = opts["seed"].check(args.seed, "--seed", v)
    for name, least in takes.items():
        v[name] = [cfg.typed(CONSTANT_BLOCK if n == "constant_block" else
                             BLOCKS[BLOCK_KIND.check(d.get("kind", "real1d"),
                                                     cfg.at(i, "kind"), {})], i)
                   for i, (n, d) in enumerate(cfg.sections) if n == name]
        if len(v[name]) < least:
            raise ConfigError(f"scenario {kind!r} needs a [{name}] section")
    return v


def _may_start(pattern, prefix):
    # whether a name that pattern matches can start with prefix
    lit, star, _ = pattern.partition("*")
    return lit.startswith(prefix) or bool(star) and prefix.startswith(lit)


def run_scenario(v, only=None):
    """Build the instance of the typed values ``v``, then run the steps
    whose condition holds and that can emit a name starting with a prefix
    in ``only``, if that is given.  An ``only`` that selects no step, or
    whose steps emit no check it names, raises a ConfigError."""
    build, steps = SCENARIOS[v["scenario"]][:2]
    steps = [st for st in steps
             if not (st.when and v[st.when[0]] != st.when[1])
             and (only is None or any(_may_start(n, p) for n in
                                      st.names.split() for p in only))]
    sel = f"--only {','.join(only)}" if only else "the config"
    if not steps:
        raise ConfigError(f"{sel} selects no check of scenario "
                          f"{v['scenario']!r}")
    r = Run(v)
    rep = ResidualReport(title=build(r))
    for out in r.check(steps):
        rep.entries += [e for e in out
                        if only is None or e.name.startswith(only)]
    if not rep.entries:
        # a report without checks must not read as a pass
        raise ConfigError(f"{sel} selects no check this run emits")
    return rep, r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cprojlab", description="build a "
                                 "chart scenario and certify its identities")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("config", type=Path)
    # validate types the seed by its config row
    runp.add_argument("--seed", help="override the sampling seed")
    runp.add_argument("--csv", type=Path, help="directory for CSV outputs")
    runp.add_argument("--only", type=str, default=None,
                      help="comma-separated check-name filter (prefixes)")
    runp.add_argument("--list-checks", action="store_true",
                      help="list the scenario's checks and exit")
    args = ap.parse_args(argv)

    only = (None if args.only is None else
            tuple(p.strip() for p in args.only.split(",") if p.strip()))
    made, written = [], []
    try:
        if only == ():
            raise ConfigError(f"--only {args.only!r} names no check prefix")
        # a non-finite value fails its check or is refused with one error
        # line, so numpy's floating-point warnings would only add noise
        with np.errstate(all="ignore"):
            cfg = parse_config(args.config)
            v = validate(cfg, args)
            t0 = time.monotonic()
            if not args.list_checks:
                if args.csv:
                    # a CSV path that cannot be written fails before the
                    # run; the directories made here, deepest first, go
                    # again if the run is refused
                    missing = [p for p in (args.csv, *args.csv.parents)
                               if not p.exists()]
                    try:
                        args.csv.mkdir(parents=True, exist_ok=True)
                    except OSError as exc:
                        raise ConfigError(f"--csv: {exc}") from None
                    made = missing
                rep, run = run_scenario(v, only)
                elapsed = time.monotonic() - t0
                # the CSV files go before the report, and a file that
                # cannot be written refuses the run
                for name, (header, rows) in (run.csv.items() if args.csv
                                             else ()):
                    lines = [header] + [[fmt(x) for x in row] for row in rows]
                    path = args.csv / f"{name}.csv"
                    try:
                        path.write_text(
                            "".join(",".join(line) + "\n" for line in lines))
                    except OSError as exc:
                        raise ConfigError(f"--csv: {exc}") from None
                    written.append(path)
    except (Error, OSError) as exc:
        for p in written:
            p.unlink()
        for p in made:
            p.rmdir()  # empty once this run's CSV files are gone
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.list_checks:
        for st in SCENARIOS[v["scenario"]][1]:
            cond = " ({} = {} only)".format(*st.when) if st.when else ""
            for name in st.names.split():
                print(name + cond)
        return 0

    rep.provenance = {"config_hash": config_hash(serialize_config(cfg)),
                      "seed": v["seed"], "version": __version__,
                      "scenario": v["scenario"]}
    sys.stdout.write(rep.format() + "# timestamp="
                     f"{time.strftime('%Y-%m-%dT%H:%M:%S')}"
                     f" elapsed={elapsed:.2f}s\n")
    return 0 if rep.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
