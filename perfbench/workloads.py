"""The benchmark's workloads and its correctness gate.

Every workload is one closed loop with one caller: the next pass starts
when the previous one has returned.  The workload seed picks only the
sampled inputs (grid random points, geodesic velocities, the CLI
``--seed``); instances, tolerances and grids are fixed.

The in-process workloads call cprojlab through its module attributes
(``kahler.check_kahler``, not a name imported into this file), so the
tracer's patches see every call.
"""

import functools
import os
import re
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("corpus-certify", "trajectories", "cli-scenarios")

# the acceptance corpus grid is 5 per axis + 64 random; 3 per axis keeps a
# pass near 2 s and 0.3 GB instead of 28 s and 3.3 GB, so a run holds
# enough passes for a steady median on a 2-core machine
CORPUS_GRID = (3, 64)
# criterion 07 restricts the curvature assembly on the 6-dim chart
RICCI_GRID_BIG = (2, 32)
MOBILITY_CS = (-1.5, -1.0, -0.5)
GEODESIC_SPEED = 0.6
BLAS_THREADS = 1

# verdicts that differ from "pass": the seeded d(omega) defect perturbs
# omega, so omega = g(J., .) and i_K omega + d mu fail with d(omega)
EXPECTED_FAIL = {("seeded-defect", "omega_def"),
                 ("seeded-defect", "domega"),
                 ("seeded-defect", "killing_ham")}
EXPECTED_EXIT = {"seeded-defect": 1}

_CHECK_LINE = re.compile(
    r"^check=(\S+) anchor=.* value=(\S+) tol=(\S+) mode=(\S+) "
    r"samples=\d+ excluded=\d+ (pass|FAIL)")


def grid_seed(seed):
    """The non-negative seed handed to GridSpec and the CLI."""
    return seed % 2 ** 32


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Checks seen in a run: verdicts against the expected set.

    A record is one check (name, value, tolerance, mode, verdict), one
    process exit code, or one call that raised.  ``failed`` counts records
    whose verdict differs from the expected one.  The worst
    ``value/tolerance`` of each check is kept as a record, not gated.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.worst = {}

    def check(self, scope, name, value, tol, mode, passed):
        expected = (scope, name) not in EXPECTED_FAIL
        self._count(scope, name, passed == expected,
                    f"value={value!r} tol={tol!r} mode={mode}")
        if mode == "min>=tol":
            ratio = tol / value if value > 0 else float("inf")
        else:
            ratio = value / tol
        key = f"{scope}/{name}"
        self.worst[key] = max(self.worst.get(key, 0.0), ratio)

    def report(self, scope, rep):
        for e in rep.entries:
            self.check(scope, e.name, e.value, e.tolerance, e.mode, e.passed)

    def exit_code(self, scope, rc):
        want = EXPECTED_EXIT.get(scope, 0)
        self._count(scope, "exit_code", rc == want, f"rc={rc} want={want}")

    def raised(self, scope, exc):
        self._count(scope, "raised", False, f"{type(exc).__name__}: {exc}")

    def _count(self, scope, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(f"{scope}/{name}: {detail}")

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# corpus-certify
# ---------------------------------------------------------------------------

def _pairs():
    from cprojlab.builders import CompatiblePairSpec, Complex2D, Real1D
    ell1 = CompatiblePairSpec(
        (Real1D(1, (0.1, 0.5, 0.2), (0.2, 0.8)),), name="ell1")
    dini = CompatiblePairSpec(
        (Real1D(1, (0.0, 1.0), (0.2, 0.8)),
         Real1D(1, (2.0, 1.0), (0.2, 0.8))), name="dini")
    cplx = CompatiblePairSpec(
        (Complex2D((0j, 1.0 + 0j), ((0.2, 0.8), (0.2, 0.8))),),
        name="complex")
    return ell1, dini, cplx


def corpus_setup(seed):
    """The six-instance acceptance corpus with its sample points."""
    from cprojlab import builders
    from cprojlab.geometry import GridSpec
    CB = builders.ConstantBlock
    ell1, dini, cplx = _pairs()
    qpe = builders.build_quotient_pair(ell1)
    qpd = builders.build_quotient_pair(dini)
    cb0, cb1 = (CB(0.0, 2),), (CB(1.0, 2),)
    charts = [
        ("ell1-plain", builders.lift_pair(qpe, route="explicit"), []),
        ("ell1-cb0", builders.lift_pair(qpe, cb0, route="explicit"),
         [(0.0, 1)]),
        ("ell1-cb1", builders.lift_pair(qpe, cb1, route="explicit"),
         [(1.0, 1)]),
        ("dini-lift", builders.lift_pair(qpd, route="jacobian"), []),
        ("complex-pair", builders.build_main_example(cplx), []),
        ("mobility2", builders.build_mobility2(1, 1.0, -0.5, cb=cb0 + cb1),
         [(0.0, 1), (1.0, 1)]),
    ]
    s = grid_seed(seed)
    out = []
    for name, chart, consts in charts:
        pts = GridSpec(*CORPUS_GRID, seed=s).points(chart.window)
        ricci_pts = (GridSpec(*RICCI_GRID_BIG, seed=s).points(chart.window)
                     if chart.dim >= 6 else None)
        out.append((name, chart, consts, pts, ricci_pts))
    return out


def corpus_segments(state):
    """One pass: certify each chart of the corpus, one segment each."""
    return [functools.partial(_certify_chart, *entry) for entry in state]


def _certify_chart(name, chart, consts, pts, ricci_pts, gate):
    from cprojlab import curvspec, kahler, killing
    fl = chart.eval(pts, order=2)
    gate.report(name, kahler.check_kahler(fl, tol=1e-6))
    gate.report(name, kahler.cproj_residual(fl, tol=1e-6))
    ks = killing.build_canonical_killing(fl, consts)
    gate.report(name, killing.killing_property_suite(ks, fl, tol=1e-6))
    gate.report(name, killing.a_on_k_recurrence(ks, fl, tol=1e-7))
    if ricci_pts is not None:
        fl = chart.eval(ricci_pts, order=2)
    gate.report(name, curvspec.ricci_identity_check(fl, tol=1e-6))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def trajectories_setup(seed):
    """Mobility-two charts for criteria 04/05, the Dini lift for 11, and
    the geodesic start velocities drawn from the seed."""
    import numpy as np
    from cprojlab import builders
    CB = builders.ConstantBlock
    cb = (CB(0.0, 2), CB(1.0, 2))
    mob = [(f"mobility2-C{C:g}", builders.build_mobility2(1, 1.0, C, cb=cb))
           for C in MOBILITY_CS]
    _, dini, _ = _pairs()
    lift = builders.lift_pair(builders.build_quotient_pair(dini),
                              route="jacobian")
    rng = np.random.default_rng(grid_seed(seed))
    v0s = []
    for _ in range(3):
        v = rng.normal(size=lift.dim)
        v0s.append(GEODESIC_SPEED * v / np.linalg.norm(v))
    return mob, lift, v0s


def trajectories_segments(state):
    """One pass: the suites of each mobility chart, then each geodesic."""
    mob, lift, v0s = state
    return ([functools.partial(_mobility_checks, name, chart)
             for name, chart in mob]
            + [functools.partial(_geodesic, lift, k, v0)
               for k, v0 in enumerate(v0s)])


def _mobility_checks(name, chart, gate):
    from cprojlab import flows
    gate.report(name, flows.lie_residual_suite(chart, tol=1e-6))
    gate.report(name, flows.transport_check(chart, t_span=(-3.0, 3.0),
                                            tol=1e-6))
    gate.report(name, flows.volume_coefficient(chart, tol=1e-5))


def _geodesic(lift, k, v0, gate):
    from cprojlab import flows
    traj = flows.integrate_geodesic(lift, lift.window.center(), v0, T=1.0,
                                    tol=1e-9)
    r = flows.jplanarity_residual(traj, lift, metric="partner")
    gate.check("dini-lift", f"jplanarity_partner_{k}", r, 1e-5, "max<=tol",
               r <= 1e-5)


# ---------------------------------------------------------------------------
# cli-scenarios: one fresh process per config, one after another
# ---------------------------------------------------------------------------

def configs(root):
    return sorted(Path(root, "configs").glob("*.cfg"))


def cli_segments(root, seed, probe=None):
    """One pass: every config in a fresh process, one segment each.

    Untraced, each process is ``python -m cprojlab.cli run``.  Traced, it
    is ``cli_probe.py``, which times the phases, records spans and prints
    one ``#perfbench`` line after the report; the segment returns
    (start, end, that line's JSON).
    """
    return [functools.partial(_run_config, root, cfg, grid_seed(seed), probe)
            for cfg in configs(root)]


def _run_config(root, cfg, seed, probe, gate):
    if probe is None:
        cmd = [sys.executable, "-m", "cprojlab.cli", "run", str(cfg),
               "--seed", str(seed)]
    else:
        cmd = [sys.executable, str(probe), str(cfg), "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=child_env(root), cwd=root, timeout=150)
    t1 = time.monotonic()
    payload = None
    for line in proc.stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            name, value, tol, mode, verdict = m.groups()
            gate.check(cfg.stem, name, float(value), float(tol), mode,
                       verdict == "pass")
        elif line.startswith("#perfbench "):
            payload = (t0, t1, line[len("#perfbench "):])
    gate.exit_code(cfg.stem, proc.returncode)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr[-2000:])
    return payload


def child_env(root):
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    src = str(Path(root, "src"))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS thread: every workload is a single closed loop, and on a
    # small shared machine a second thread mostly adds straggler noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # a fixed hash seed keeps allocation order, and so peak memory, the
    # same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env
