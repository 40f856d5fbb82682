"""The package's import layers: no module imports one above it, and no
function imports at call time."""

import ast
import subprocess
import sys
from pathlib import Path

import cprojlab

SRC = Path(cprojlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
# each module may import only modules of its own or an earlier layer
LAYERS = (
    ("report", "config", "jets", "ode"),
    ("geometry",),
    ("builders",),
    ("kahler",),
    ("killing", "curvspec", "flows"),
    ("cli",),
)
LAYER = {m: i for i, names in enumerate(LAYERS) for m in names}
CHECK_MODULES = ("kahler", "killing", "curvspec", "flows")


def _trees():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _imported(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("cprojlab.")]
    base = node.module or ""
    if node.level == 0:
        if base != "cprojlab" and not base.startswith("cprojlab."):
            return []
        base = base.removeprefix("cprojlab").lstrip(".")
    if base:
        return [base.split(".")[0]]
    return [a.name for a in node.names if a.name in LAYER]


def test_every_module_has_a_layer():
    assert set(_trees()) == set(LAYER)


def test_no_function_imports():
    found = []
    for mod, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found += [f"{mod}.py:{n.lineno}" for n in ast.walk(fn)
                          if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not found


def test_no_module_imports_a_later_layer():
    upward = []
    for mod, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                upward += [f"{mod} -> {t}" for t in _imported(node)
                           if LAYER[t] > LAYER[mod]]
    assert not upward


def test_builders_loads_no_check_module():
    code = ("import sys, cprojlab.builders; print(' '.join(sorted("
            "m for m in sys.modules if m.startswith('cprojlab.'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout.split()
    assert "cprojlab.builders" in out
    assert not {f"cprojlab.{m}" for m in CHECK_MODULES} & set(out)


def test_only_chart_fields_is_a_dataclass():
    # the decorator writes each class's methods as source and compiles them
    # at import; ChartFields needs dataclasses.replace, every other record
    # is a NamedTuple or a plain class
    found = []
    for mod, tree in _trees().items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for dec in cls.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if "dataclass" in (getattr(dec, "id", None),
                                       getattr(dec, "attr", None)):
                        found.append(f"{mod}.{cls.name}")
    assert found == ["builders.ChartFields"]


def test_start_up_loads_no_numpy_polynomial():
    # a fresh process that imports the CLI and builds the benchmark's corpus
    # lifts and a mobility-two chart: numpy.polynomial waits for the Jordan
    # and appendix scenarios
    code = f"""if True:
        import sys, argparse, numpy
        sys.path.insert(0, {str(ROOT / "perfbench")!r})
        import workloads
        before = set(sys.modules)
        import cprojlab.cli
        from cprojlab.builders import (
            ConstantBlock, build_mobility2, build_quotient_pair, lift_pair)
        ell1, dini, cplx = workloads._pairs()
        for spec, route in ((ell1, "explicit"), (dini, "jacobian"),
                            (cplx, "explicit")):
            lift_pair(build_quotient_pair(spec), route=route)
        build_mobility2(1, 1.0, -0.5, cb=(ConstantBlock(0.0, 2),
                                          ConstantBlock(1.0, 2)))
        print(" ".join(sorted(set(sys.modules) - before)))
    """
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout.split()
    assert "cprojlab.cli" in out
    assert "numpy.polynomial" not in out
