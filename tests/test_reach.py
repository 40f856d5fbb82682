"""The package's reach: every function in ``src/cprojlab`` is reached by a
``cprojlab run`` of the shipped and CI configs, or is named below with the
reason it stays.  Dead code, or a named function that a run now reaches,
fails here until the list is edited."""

import ast
import sys
from pathlib import Path

import cprojlab
from cprojlab import cli

SRC = Path(cprojlab.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# a 3x3 Jordan block and a real block next to a complex pair, which CI
# also runs
TEST_CONFIGS = Path(__file__).resolve().parent / "configs"

TRACED = "wrapped by name in perfbench/tracer.py until ROADMAP item 1"
VECTOR_FIELD = "certified by a run with ROADMAP item 5"
STEP = "made a registry step by ROADMAP item 7(a)"
BENCH = ("called by the benchmark's workloads; the geodesics and "
         "planarity become a run step with ROADMAP item 3")
API = "Jet or report API that the tests read"
JORDAN_PLUS = ("criterion 03's spec of a Jordan block beside a RealRho "
               "block, which no scenario builds")
GUARD = "a guard for library callers"

# function -> why no run reaches it
UNREACHED = {
    "builders.PowerProfile.__call__": JORDAN_PLUS,
    "builders.ProjectiveMobilityChart.__init__": VECTOR_FIELD,
    "builders.ProjectiveMobilityChart._metric": VECTOR_FIELD,
    "builders.ProjectiveMobilityChart.eval": VECTOR_FIELD,
    "builders.ProjectiveMobilityChart.metric": VECTOR_FIELD,
    "builders.RealRho.v_slices": JORDAN_PLUS,
    "builders._Nilpotent.check_lift": GUARD,
    "builders.build_main_example": BENCH,
    "builders.build_mobility2_projective": VECTOR_FIELD,
    "curvspec.jordan_alpha_invariant": STEP,
    "curvspec.r0_operator": STEP,
    "curvspec.r0_operator.op": STEP,
    "curvspec.third_order_residual": STEP,
    "flows._connection": BENCH,
    "flows.integrate_geodesic": BENCH,
    "flows.integrate_jplanar": BENCH,
    "flows.integrate_jplanar.exit_event": BENCH,
    "flows.integrate_jplanar.rhs": BENCH,
    "flows.jplanarity_residual": BENCH,
    "geometry.Box.contains": BENCH,
    "geometry.lie_christoffel": VECTOR_FIELD,
    "geometry.lie_scalar": TRACED,
    "geometry.lie_two_form": TRACED,
    "geometry.lie_vector": TRACED,
    "geometry.third_cov_scalar": STEP,
    "jets.Jet.cos": API,
    "jets.Jet.grad": API,
    "jets.Jet.hess": API,
    "jets.Jet.sin": API,
    "jets.Jet.sqrt": API,
    "jets.Jet.third": API,
    "jets.Jet.value": API,
    "killing.totally_geodesic_residual": STEP,
    "ode._bisect": BENCH,
    "report.ResidualReport.entry": API,
    "report.ResidualReport.max_value": API,
}


def _functions():
    """Each function of the package by (file, qualified name), the way its
    code object names it, mapped to the name ``UNREACHED`` uses."""
    out = {}

    def walk(node, path, qual):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (path, qual + ch.name)
                assert key not in out, f"two functions named {key[1]}"
                out[key] = f"{Path(path).stem}.{qual}{ch.name}".replace(
                    ".<locals>", "")
                walk(ch, path, f"{qual}{ch.name}.<locals>.")
            elif isinstance(ch, ast.ClassDef):
                walk(ch, path, f"{qual}{ch.name}.")
            else:
                walk(ch, path, qual)

    for p in sorted(SRC.glob("*.py")):
        walk(ast.parse(p.read_text(), str(p)), str(p), "")
    return out


def _runs():
    """The argument lists of the census: every shipped config and every
    one of ``tests/configs`` at seeds 0 and 3, each one's
    ``--list-checks``, one ``--only`` run and one refused run; with the
    exit code each must give."""
    cfgs = sorted(CONFIGS.glob("*.cfg")) + sorted(TEST_CONFIGS.glob("*.cfg"))
    runs = []
    for cfg in cfgs:
        fails = int(cfg.stem == "seeded-defect")
        runs += [(["run", str(cfg), "--seed", s], fails) for s in "03"]
        runs.append((["run", str(cfg), "--list-checks"], 0))
    runs.append((["run", str(CONFIGS / "dini-lift.cfg"), "--only",
                  "J_squared"], 0))
    # a refused run, whose one error line `report.Error` forms
    runs.append((["run", str(CONFIGS / "dini-pair.cfg"), "--only", "zzz"], 2))
    return runs


def test_every_unreached_function_is_named_with_its_reason(capsys):
    # a plan cached by an earlier test would hide the function building it
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("cprojlab."):
            for f in vars(mod).values():
                if callable(getattr(f, "cache_clear", None)):
                    f.cache_clear()
    funcs = _functions()
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    runs = _runs()
    codes = []
    old = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv, _ in runs:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(old)
    capsys.readouterr()
    assert codes == [want for _, want in runs]
    unreached = {name for key, name in funcs.items() if key not in reached}
    assert unreached == set(UNREACHED)
