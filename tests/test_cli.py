import argparse
import contextlib
import dataclasses
import fnmatch
import functools
import inspect
import io
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cprojlab import builders, cli, geometry, killing
from cprojlab.config import (
    ConfigError, parse_config, parse_config_text, serialize_config,
)
from cprojlab.cli import main, run_scenario
from cprojlab.flows import FlowError
from cprojlab.jets import Jet
from cprojlab.report import ResidualReport

from conftest import christoffel_rows, derived_keys, sample

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# a 3x3 Jordan block and a real block next to a complex pair
TEST_CONFIGS = Path(__file__).resolve().parent / "configs"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cprojlab.cli", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def refused_by_argparse(capsys, argv):
    """The stderr lines of a ``main(argv)`` that argparse refuses: a usage
    line, then the error, exit code 2 and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert exc.value.code == 2 and out == "" and len(lines) == 2, err
    assert lines[0].startswith("usage: cprojlab ")
    return lines


def test_config_roundtrip():
    text = (CONFIGS / "dini-lift.cfg").read_text()
    cfg = parse_config_text(text)
    assert cfg.options["scenario"] == "lift"
    assert cfg.options["grid"] == "4"
    assert [n for n, _ in cfg.sections] == ["block", "block"]
    again = parse_config_text(serialize_config(cfg))
    assert (again.options, again.sections) == (cfg.options, cfg.sections)
    last = parse_config_text(serialize_config(again))
    assert (last.options, last.sections) == (again.options, again.sections)


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("scenario = lift\nbad line without equals\n")
    with pytest.raises(ConfigError, match="line 1: option 'scenario' needs one of"):
        cli.validate(parse_config_text("scenario = nonsense\n"),
                     argparse.Namespace(seed=None))
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("[unterminated\n")


def test_dini_lift_passes():
    code, out, err = run_cli("run", str(CONFIGS / "dini-lift.cfg"))
    assert code == 0, out + err
    assert "overall=pass" in out
    assert out.count("check=") >= 9


def test_seeded_defect_fails_on_domega():
    code, out, err = run_cli("run", str(CONFIGS / "seeded-defect.cfg"))
    assert code == 1
    assert "overall=FAIL" in out
    for line in out.splitlines():
        if "check=domega" in line:
            assert "FAIL" in line
            break
    else:
        pytest.fail("no domega entry in the report")


def test_determinism_byte_identical():
    _, out1, _ = run_cli("run", str(CONFIGS / "dini-pair.cfg"))
    _, out2, _ = run_cli("run", str(CONFIGS / "dini-pair.cfg"))
    strip = lambda s: "\n".join(l for l in s.splitlines()
                                if not l.startswith("# timestamp"))
    assert strip(out1) == strip(out2)


def test_phase_portrait_csv(tmp_path):
    code, out, err = run_cli("run", str(CONFIGS / "phase-portraits.cfg"),
                             "--csv", str(tmp_path))
    assert code == 0, out + err
    files = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(files) == 3
    body = (tmp_path / files[0]).read_text().splitlines()
    assert body[0] == "t,re,im"
    assert len(body) > 100
    # floats carry 17 significant digits
    assert any(len(tok) > 12 for tok in body[1].split(","))


def test_only_filter_and_list_checks():
    code, out, _ = run_cli("run", str(CONFIGS / "dini-lift.cfg"),
                           "--only", "J_squared,domega")
    assert code == 0
    names = [l.split()[0] for l in out.splitlines()
             if l.startswith("check=")]
    assert names == ["check=J_squared", "check=domega"]
    code, out, _ = run_cli("run", str(CONFIGS / "dini-lift.cfg"),
                           "--list-checks")
    assert code == 0 and "cproj_compat" in out


def test_seed_flag_is_recorded_and_grid_flag_refused(capsys):
    # the seed flag is recorded in the provenance; the grid is the
    # config's alone
    path = str(CONFIGS / "dini-pair.cfg")
    assert main(["run", path, "--seed", "5"]) == 0
    assert "provenance.seed=5" in capsys.readouterr().out
    lines = refused_by_argparse(capsys, ["run", path, "--grid", "3",
                                         "--seed", "5"])
    assert lines[1] == "cprojlab: error: unrecognized arguments: --grid 3"


@pytest.mark.parametrize("name", ["my lift", "true", "007", "1e3"])
def test_lift_report_title_is_the_name_as_written(tmp_path, capsys, name):
    text = (CONFIGS / "dini-lift.cfg").read_text()
    assert "\nname = dini-lift\n" in text
    cfg = tmp_path / "named.cfg"
    cfg.write_text(text.replace("\nname = dini-lift\n", f"\nname = {name}\n"))
    assert main(["run", str(cfg), "--only", "J_squared"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"report={name}"


@pytest.mark.parametrize("line,flags,key,want", [
    ("grid = 2.0", {}, "grid", 2),
    ("seed = 1e3", {}, "seed", 1000),
    ("seed = 0", {"seed": "2.0"}, "seed", 2),
    ("seed = 9007199254740993", {}, "seed", 2 ** 53 + 1),
    ("seed = 0", {"seed": "9007199254740993"}, "seed", 2 ** 53 + 1),
], ids=["grid-config", "seed-exponent", "seed-flag-decimal",
        "seed-config-digits", "seed-flag-digits"])
def test_integer_rows_take_integral_text(line, flags, key, want):
    # a config value and a flag reach the same row as text
    text = (CONFIGS / "dini-pair.cfg").read_text()
    old = next(l for l in text.splitlines() if l.startswith(f"{key} ="))
    args = argparse.Namespace(**{"seed": None, **flags})
    v = cli.validate(parse_config_text(text.replace(old, line, 1)), args)
    assert v[key] == want and type(v[key]) is int


@pytest.mark.parametrize("flag,where", [
    ("--csv", "file.txt"), ("--csv", "file.txt/csv")])
def test_unwritable_output_path_exits_2_before_the_run(
        monkeypatch, tmp_path, capsys, flag, where):
    monkeypatch.chdir(tmp_path)
    Path("file.txt").write_text("kept\n")
    monkeypatch.setattr(cli, "run_scenario", None)
    assert main(["run", str(CONFIGS / "dini-pair.cfg"), flag, where]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    assert lines[0].startswith(f"error: {flag}: ")
    assert Path("file.txt").read_text() == "kept\n"


def test_refused_run_leaves_no_csv_directory(monkeypatch, tmp_path, capsys):
    # 4104 samples of a 12-dim chart are refused after the CSV directory
    # is made; the directories the run made go, the one it found stays
    monkeypatch.chdir(tmp_path)
    text = (CONFIGS / "mobility2.cfg").read_text()
    for old, new in (("ell = 1", "ell = 4"), ("C = -0.5", "C = 2"),
                     ("grid = 3", "grid = 2"), ("random = 48", "random = 8")):
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n", 1)
    Path("big.cfg").write_text(text)
    Path("kept").mkdir()
    assert main(["run", "big.cfg", "--csv", "kept/csvleft/out"]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1, err
    assert " need more time than a run may take " in lines[0]
    assert sorted(p.name for p in Path().iterdir()) == ["big.cfg", "kept"]
    assert list(Path("kept").iterdir()) == []


def test_unwritable_csv_file_refuses_the_run(monkeypatch, tmp_path, capsys):
    # a directory where the last portrait's CSV file goes: the run is
    # refused before the report, and the files it wrote go again
    monkeypatch.chdir(tmp_path)
    Path("out/portrait_rho2.csv").mkdir(parents=True)
    assert main(["run", str(CONFIGS / "phase-portraits.cfg"),
                 "--csv", "out"]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1, err
    assert lines[0].startswith("error: --csv: ")
    assert [p.name for p in Path("out").iterdir()] == ["portrait_rho2.csv"]
    assert list(Path("out/portrait_rho2.csv").iterdir()) == []


# the rho' guard of a real block
FLAT_RHO = "rho' of a Real1D block vanishes on its window"


@pytest.mark.parametrize("name,old,new,guard", [
    # the option row refuses it before any box exists
    ("dini-pair", "window = 0.2 0.8", "window = 0.8 0.2",
     "[block] key 'window' needs lo < hi in each pair"),
    ("dini-pair", "rho = 2.0 1.0", "rho = 0.0 1.0",  # coinciding rho blocks
     "eigenvalue collision"),
    ("dini-pair", "eps = 1", "eps = 0",         # degenerate block metric
     "a real1d block needs eps != 0"),
    # a lift needs rho' != 0 on each block's window
    ("dini-lift", "rho = 0.0 1.0", "rho = 0", FLAT_RHO),
    ("dini-lift", "rho = 2.0 1.0", "rho = 2.0", FLAT_RHO),
    ("seeded-defect", "rho = 0.0 1.0", "rho = 1.0 0.0", FLAT_RHO),
    ("dini-lift", "rho = 0.0 1.0", "rho = 0.0 -1.0 1.0",  # rho'(0.5) = 0
     FLAT_RHO),
    ("complex-pair", "rho_re = 0.0 1.0\nrho_im = 0.0 0.0",
     "rho_re = 1.0 0.0\nrho_im = 1.0 0.0",
     "rho' of a Complex2D block vanishes"),
    # two constant blocks with one eigenvalue
    ("mobility2", "c = 1.0", "c = 0.0",
     "constant eigenvalues 0.0 and 0.0 are closer than"),
    # rho = x near 0 at the central grid sample: |det L| < 1e-12
    ("dini-pair", "window = 0.2 0.8", "window = -0.3 0.3000000000001",
     "det L vanishes at a sample"),
    # no instance named: a lift without a block, a section without a name
    ("complex-pair", "[block]\nkind = complex2d\nrho_re = 0.0 1.0\n"
     "rho_im = 0.0 0.0\nwindow = 0.2 0.8 0.2 0.8\n", "",
     "scenario 'lift' needs a [block] section"),
    ("dini-pair", "[block]", "[]", "empty section name"),
    # a constant block of odd dimension, or with a sign per real line
    ("mobility2", "dim = 2", "dim = 3",
     "constant block dimension must be even"),
    ("mobility2", "dim = 2", "dim = 2\nsignature = 1 1",
     "signature length must be dim/2"),
    # a 2x2 Jordan block with the 3x3 block's initial state
    ("jordan2", "init = 0.5 0.1", "init = 0.5 0.1 0.2",
     "initial state size does not match the kind"),
    # a constant eigenvalue v would move: not a fixed point of rho(1-rho)
    ("mobility2", "c = 1.0", "c = 3.0", "needs c = 0 or c = 1"),
    ("mobility2", "c = 1.0", "c = -1.0", "needs c = 0 or c = 1"),
    # C = 5 at seed 1: g is ill-conditioned at sample 0 (cond 4.5e10), so
    # the numeric nabla La misses commuting with A there
    ("appendix", "C = -1.5\nseed = 0", "C = 5\nseed = 1",
     "does not commute with A at sample 0 (residual "),
], ids=["reversed-window", "coinciding-rho", "zero-eps", "zero-rho",
        "constant-rho", "constant-rho-defect", "critical-rho",
        "constant-complex-rho", "equal-constant-blocks", "vanishing-det-L",
        "lift-without-block", "empty-section-name", "odd-constant-block",
        "signature-length", "jordan2-init-of-3x3", "constant-c-3",
        "constant-c-minus-1", "appendix-c5-seed1"])
def test_unbuildable_instance_exits_2(tmp_path, name, old, new, guard):
    # one error line, from the guard that refuses the edit
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new, 1))
    code, out, err = run_cli("run", str(cfg))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert guard in lines[0], err


@pytest.mark.parametrize("name, eps", [
    ("dini-lift", 2), ("dini-lift", -3), ("dini-pair", 2), ("dini-pair", -3),
])
def test_only_a_lift_refuses_eps_other_than_a_sign(tmp_path, name, eps):
    # the two lift routes agree only at eps = 1 or -1, so a lift refuses
    # any other eps on either route; a quotient pair takes every nonzero
    # eps and passes
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert "\neps = 1\n" in text
    text = text.replace("\neps = 1\n", f"\neps = {eps}\n", 1)
    routes = ["jacobian", "explicit"] if name == "dini-lift" else [None]
    for route in routes:
        cfg = tmp_path / f"eps-{route}.cfg"
        cfg.write_text(text if route is None else text.replace(
            "\nroute = jacobian\n", f"\nroute = {route}\n"))
        code, out, err = run_cli("run", str(cfg))
        if route is None:
            assert (code, err) == (0, "")
            checks = [l for l in out.splitlines() if l.startswith("check=")]
            assert checks and all(l.endswith(" pass") for l in checks)
        else:
            assert (code, out) == (2, "")
            assert err == ("error: a real1d block of a lift needs eps = 1 "
                           f"or -1, got eps = {eps}\n")


def _run_mobility2_with_a(tmp_path, a):
    text = (CONFIGS / "mobility2.cfg").read_text()
    assert "\na = 1.0\n" in text
    cfg = tmp_path / "extreme-a.cfg"
    cfg.write_text(text.replace("\na = 1.0\n", f"\na = {a}\n", 1))
    return run_cli("run", str(cfg))


@pytest.mark.parametrize("a", ["1e-300", "1e-200"])
def test_overflowing_metric_exits_2(tmp_path, a):
    # g or its derivatives overflow at every sample of the run's order-2
    # evaluation; the error line is all of stderr, with no numpy warning
    # before it
    code, out, err = _run_mobility2_with_a(tmp_path, a)
    assert (code, out) == (2, "")
    assert err == ("error: the metric or its derivatives are not finite at "
                   "777 of 777 samples\n")


@pytest.mark.parametrize("a", ["1e100", "1e300"])
def test_extreme_a_exits_2_with_one_error_line(tmp_path, a):
    # the metric is refused; numpy's overflow and invalid-value warnings
    # stay out of stderr
    code, out, err = _run_mobility2_with_a(tmp_path, a)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("a", ["1e-8", "1e-100"])
def test_small_a_fails_only_the_gram_margin(tmp_path, a):
    # the chart builds and every identity holds; the Gram determinant of
    # the Killing fields scales with a and falls under its bound
    code, out, err = _run_mobility2_with_a(tmp_path, a)
    assert (code, err) == (1, "")
    checks = [l for l in out.splitlines() if l.startswith("check=")]
    failed = [l.split()[0] for l in checks if l.endswith(" FAIL")]
    assert failed == ["check=killing_gram_margin"]
    assert all(" pass" in l for l in checks if " FAIL" not in l)


@pytest.mark.parametrize("name,line", [
    ("dini-lift", "rho = 0.0 1.0"),              # real1d without rho
    ("complex-pair", "window = 0.2 0.8 0.2 0.8"),  # complex2d without window
    ("mobility2", "c = 0.0"),                    # constant_block without c
], ids=["real1d-rho", "complex2d-window", "constant_block-c"])
def test_missing_required_key_exits_2(tmp_path, capsys, name, line):
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert line + "\n" in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(line + "\n", "", 1))
    assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    key = line.split("=")[0].strip()
    assert repr(key) in lines[0] and "block]" in lines[0]


@pytest.mark.parametrize("line,again", [
    ("grid = 5", "grid = 2"),
    ("rho = 0.0 1.0", "rho = 0.0 2.0"),
], ids=["option", "block-key"])
def test_repeated_key_exits_2(tmp_path, capsys, line, again):
    text = (CONFIGS / "dini-pair.cfg").read_text()
    n = text.splitlines().index(line) + 1
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text.replace(line + "\n", f"{line}\n{again}\n", 1))
    assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1, err
    key = line.split("=")[0].strip()
    assert lines[0].startswith(f"error: line {n}: ")
    assert lines[0].endswith(f"{key!r} is set again on line {n + 1}")


def test_cli_import_skips_scipy_integrate():
    # no scipy at all: with every scipy import made to fail, the three
    # ODE scenarios still run and pass
    paths = [str(CONFIGS / f"{n}.cfg")
             for n in ("jordan2", "mobility2", "phase-portraits")]
    code = ("import sys; sys.modules['scipy'] = None; "
            "from cprojlab.cli import main; "
            f"codes = [main(['run', p]) for p in {paths!r}]; "
            "print('codes', codes, file=sys.stderr); "
            "sys.exit(any(codes))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "codes [0, 0, 0]" in proc.stderr


def test_flow_error_exits_2(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise FlowError("integration failed: step size underflow")
    monkeypatch.setattr(cli, "eigenvalue_flow", fail)
    assert main(["run", str(CONFIGS / "phase-portraits.cfg")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_missing_config_is_reported():
    code, out, err = run_cli("run", "/nonexistent.cfg")
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize("name", ["complex-pair", "mobility2", "jordan2",
                                  "appendix", "dini-pair", "dini-lift",
                                  "phase-portraits", "seeded-defect"])
def test_remaining_scenarios_pass(capsys, name):
    path = CONFIGS / f"{name}.cfg"
    failing = name == "seeded-defect"
    assert main(["run", str(path)]) == (1 if failing else 0)
    out = capsys.readouterr().out
    assert ("overall=FAIL" if failing else "overall=pass") in out
    assert main(["run", str(path), "--list-checks"]) == 0
    listed = [re.fullmatch(r"(\S+)(?: \((\S+) = (\S+) only\))?", l).groups()
              for l in capsys.readouterr().out.splitlines()]
    reported = [l.split()[0].removeprefix("check=")
                for l in out.splitlines() if l.startswith("check=")]
    assert reported
    # the run emits exactly the listed names whose condition holds, in
    # their order, a wildcard name standing for a run of one or more
    cfg = parse_config(path)
    named = []
    for pat, key, val in listed:
        if key is None or str(cfg.options.get(key)) == val:
            matched = [nm for nm in reported if fnmatch.fnmatchcase(nm, pat)]
            assert matched, pat
            named += matched
    assert named == reported


# the modules of the check suites that the runner calls
SUITES = ("cprojlab.kahler", "cprojlab.killing", "cprojlab.curvspec",
          "cprojlab.flows")


def _canonical_texts():
    """A config of each scenario kind, its first shipped one, with every
    step's condition holding (the Jordan config is the 3x3 test config)."""
    texts = {}
    for path in [TEST_CONFIGS / "jordan3.cfg", *sorted(CONFIGS.glob("*.cfg"))]:
        text = path.read_text()
        texts.setdefault(parse_config_text(text).options["scenario"], text)
    assert set(texts) == set(cli.SCENARIOS)
    return texts


def _canonical_runs():
    """The typed values of each scenario kind's canonical config."""
    args = argparse.Namespace(seed=None)
    return {kind: cli.validate(parse_config_text(text), args)
            for kind, text in _canonical_texts().items()}


class RecordingRun:
    """A Run that records the names of the attributes read through it."""

    def __init__(self, run):
        self.run, self.reads = run, set()

    def __getattr__(self, name):
        self.reads.add(name)
        return getattr(self.run, name)


@pytest.mark.parametrize("kind", sorted(cli.SCENARIOS))
def test_every_step_reads_the_run(kind):
    # a step that reads nothing of the run but the CSV table evaluates a
    # constant of the code; such an identity belongs in a unit test, not
    # in the report.  Each step runs alone, on a run that holds the built
    # instance and fields with nothing cached, as under --only; a step
    # that runs once reads no quantity of a block of samples
    assert cli.Step._fields == ("names", "emit", "when", "once")
    v = _canonical_runs()[kind]
    build, steps = cli.SCENARIOS[kind][:2]
    base = cli.Run(v)
    build(base)
    for st in steps:
        assert not st.when or v[st.when[0]] == st.when[1], st.names
        run = cli.Run(v)
        build(run)
        if hasattr(base, "inst"):
            run.f = dataclasses.replace(base.f)
        rec = RecordingRun(run)
        st.emit(rec)
        assert rec.reads - {"csv"}, st.names
        assert not st.once or not rec.reads & {
            "rows", "f", "fl", "ks", "ghat"}, st.names


@pytest.mark.parametrize("name,other", [
    ("dini-lift", "explicit"), ("complex-pair", "jacobian")])
def test_route_agreement_builds_the_other_route(monkeypatch, capsys, name,
                                                other):
    routes = []

    def recorded(*a, route, **kw):
        routes.append(route)
        return builders.lift_pair(*a, route=route, **kw)

    monkeypatch.setattr(cli, "lift_pair", recorded)
    path = CONFIGS / f"{name}.cfg"
    assert main(["run", str(path), "--only", "route_agreement"]) == 0
    assert routes == [parse_config(path).options["route"], other]
    checks = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("check=")]
    assert len(checks) == 1 and checks[0].startswith("check=route_agreement ")


@pytest.mark.parametrize("field", ["g", "J", "A"])
def test_route_agreement_fails_on_a_first_derivative_defect(
        monkeypatch, capsys, field):
    # the other route's first derivatives of one field off by 1e-6, its
    # values untouched: the line compares orders 0 and 1, so it FAILs
    class Defective:
        def __init__(self, chart):
            self.chart = chart

        def eval(self, pts, order=2):
            fl = self.chart.eval(pts, order)
            j = getattr(fl, field)
            bad = Jet(j.dim, j.order, [j.c[0], j.c[1] + 1e-6, *j.c[2:]])
            return dataclasses.replace(fl, **{field: bad})

    charts = []

    def second_defective(*a, **kw):
        charts.append(builders.lift_pair(*a, **kw))
        return charts[-1] if len(charts) == 1 else Defective(charts[-1])

    monkeypatch.setattr(cli, "lift_pair", second_defective)
    path = CONFIGS / "dini-lift.cfg"
    assert main(["run", str(path), "--only", "route_agreement"]) == 1
    line, = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("check=route_agreement ")]
    assert line.endswith(" FAIL")
    assert len(charts) == 2


@pytest.mark.parametrize("name", ["dini-lift", "complex-pair"])
def test_killing_omega_kk_fails_on_a_constant_omega_defect(monkeypatch,
                                                           capsys, name):
    # omega + 1e-3 dt_0 ^ dt_1 on the run's fields: a constant 2-form is
    # closed, so the build succeeds and d omega stays 0, but omega(K_0, K_1)
    # moves.  Both charts have ell = 2; on mobility2 (ell = 1) omega(K, K)
    # is 0 by antisymmetry whatever omega is
    built = cli.Run.__dict__["f"].func

    def defective(run):
        f = built(run)
        w = f.omega
        coeffs = [c.copy() for c in w.c]
        coeffs[0][:, 0, 1] += 1e-3
        coeffs[0][:, 1, 0] -= 1e-3
        return dataclasses.replace(f, omega=Jet(w.dim, w.order, coeffs))

    path = str(CONFIGS / f"{name}.cfg")
    assert main(["run", path]) == 0
    clean = capsys.readouterr().out
    assert re.search(r"^check=killing_omega_KK .* pass$", clean, re.M)
    f = functools.cached_property(defective)
    f.__set_name__(cli.Run, "f")
    monkeypatch.setattr(cli.Run, "f", f)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    kk, = re.findall(r"^check=killing_omega_KK .*$", out, re.M)
    assert kk.endswith(" FAIL")
    # 2.5e-4 on both charts
    assert 2e-4 < float(re.search(r" value=(\S+)", kk).group(1)) < 3e-4
    assert re.search(r"^check=domega .* value=0 .* pass$", out, re.M)


def test_main_example_scenario_exits_2(tmp_path, capsys):
    # a lift with route = explicit runs the route cross-check
    text = (CONFIGS / "complex-pair.cfg").read_text()
    cfg = tmp_path / "main-example.cfg"
    cfg.write_text(text.replace("scenario = lift\n",
                                "scenario = main-example\n"))
    assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: line 2: option 'scenario' needs one of "
                   f"{', '.join(cli.SCENARIOS)}, got 'main-example'\n")


@pytest.mark.parametrize("name,key,value", [
    ("dini-lift", "grid", "four"),
    ("dini-lift", "grid", "4.5"),
    ("dini-lift", "grid", "0"),
    ("dini-pair", "random", "many"),
    ("dini-pair", "random", "-1"),
    ("dini-pair", "seed", "x"),
    ("phase-portraits", "seed", "x"),
    ("mobility2", "ell", "one"),
    ("mobility2", "ell", "0"),
    ("mobility2", "C", "minus"),
    ("jordan2", "n2", "two"),
    ("phase-portraits", "T", "long"),
    ("phase-portraits", "T", "inf"),
    ("phase-portraits", "T", "nan"),
    ("mobility2", "C", "nan"),
    ("dini-lift", "grid", "inf"),
    ("appendix", "C", "1 2"),
    ("seeded-defect", "defect.omega_eps", "tiny"),
    ("dini-pair", "tol.proj", "small"),
    ("mobility2", "a", "one"),
    ("mobility2", "a", "1 2"),
    ("jordan2", "init", "half 0.1"),
    ("jordan2", "interval", "0.2"),
    ("jordan2", "interval", "0.2 nan"),
    ("jordan2", "x_window", "1.2 1.5 1.8"),
    ("dini-pair", "gird", "2"),
    ("dini-lift", "route", "bogus"),
    ("dini-pair", "seed", "-1"),
    ("appendix", "C", "1e300"),
    ("phase-portraits", "T", "1e300"),
    ("phase-portraits", "T", "0"),
    ("phase-portraits", "grid", "4"),
    ("dini-pair", "grid", "100"),
    ("dini-pair", "tol.kahlr", "1e-6"),
    ("seeded-defect", "tol.kahler", "-1"),
    ("jordan2", "interval", "0.8 0.2"),
])
def test_bad_numeric_option_exits_2(tmp_path, capsys, name, key, value):
    lines = (CONFIGS / f"{name}.cfg").read_text().splitlines()
    kept = [l for l in lines if l.split("=")[0].strip() != key]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join([f"{key} = {value}"] + kept) + "\n")
    assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err_lines = err.splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: "), err
    assert repr(key) in err_lines[0]


@pytest.mark.parametrize("name,key", [
    ("jordan2", "tol.kahler"),
    ("phase-portraits", "tol.ricci"),
    ("dini-pair", "tol.planarity"),
    ("appendix", "tol.proj"),
    ("dini-lift", "tol.lie"),
    # the class of a check on a code constant, gone from the registry
    ("appendix", "tol.vandermonde"),
])
def test_tolerance_key_of_an_unread_class_exits_2(tmp_path, capsys, name,
                                                  key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = 1e-3\n" + (CONFIGS / f"{name}.cfg").read_text())
    assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: line 1: option {key!r} is unknown here\n"


# the tolerance classes a config could once set, each a tol.<class> key;
# every check's bound is now the default of the function that builds it
TOL_CLASSES = ("kahler cproj proj killing aonk dual ricci lie volume "
               "transport ode pde_split spectrum roundtrip").split()


@pytest.mark.parametrize("name", [
    "appendix", "complex-pair", "dini-lift", "dini-pair", "jordan2",
    "mobility2", "phase-portraits"])
def test_tolerance_keys_are_refused(tmp_path, capsys, name):
    # no scenario takes a tolerance key
    assert not hasattr(cli, "DEFAULT_TOLS")
    text = (CONFIGS / f"{name}.cfg").read_text()
    cfg = tmp_path / "tol.cfg"
    for cls in TOL_CLASSES:
        cfg.write_text(f"tol.{cls} = 0.5\n" + text)
        assert main(["run", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line 1: option 'tol.{cls}' is unknown here\n"
    # --list-checks prints each name and its run condition, and no bound
    assert main(["run", str(CONFIGS / f"{name}.cfg"), "--list-checks"]) == 0
    for line in capsys.readouterr().out.splitlines():
        assert re.fullmatch(r"\S+(?: \(\S+ = \S+ only\))?", line), line


# the bound of each check of the two scenarios without a suite of chart
# fields, by name pattern, as the functions that build their entries write
OWN_BOUNDS = {
    "phase-portraits": {"circle_*": 1e-6},
    "appendix": {"ricci_identity": 1e-6, "spectrum_*": 1e-5,
                 "fppp_limit": 1e-3},
}


@pytest.mark.parametrize("name", ["phase-portraits", "appendix"])
def test_tol_scale_is_refused_and_each_line_keeps_its_bound(capsys, name):
    # no flag scales a bound: --tol-scale is an unknown flag, and each
    # line carries the bound its function writes
    path = str(CONFIGS / f"{name}.cfg")
    lines = refused_by_argparse(capsys, ["run", path, "--tol-scale", "2"])
    assert lines[1] == ("cprojlab: error: unrecognized arguments: "
                        "--tol-scale 2")
    assert main(["run", path]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("check=")]
    assert lines and all(" mode=max<=tol " in l for l in lines)
    for line in lines:
        nm = line.split()[0].removeprefix("check=")
        (bound,) = [b for p, b in OWN_BOUNDS[name].items()
                    if fnmatch.fnmatchcase(nm, p)]
        assert float(re.search(r" tol=(\S+)", line).group(1)) == bound, nm


@pytest.mark.parametrize("kind", sorted(cli.SCENARIOS))
def test_every_suite_entry_carries_its_default_bound(monkeypatch, kind):
    # no key moves a line: run_scenario passes each step the run alone,
    # and the steps call each suite without a tol, so its entries carry
    # the suite's default (the Gram margin its module constant)
    reports = []
    for fname, fn in list(vars(cli).items()):
        if (inspect.isfunction(fn) and fn.__module__ in SUITES
                and "tol" in inspect.signature(fn).parameters):
            def called(*a, _fn=fn, **kw):
                bound = inspect.signature(_fn).bind(*a, **kw).arguments
                assert "tol" not in bound, _fn.__name__
                out = _fn(*a, **kw)
                if isinstance(out, ResidualReport):
                    reports.append((_fn, out))
                return out

            monkeypatch.setattr(cli, fname, called)

    def run_only(emit):
        def step(*a, **kw):
            assert not kw and len(a) == 1 and isinstance(a[0], cli.Run)
            return emit(*a)
        return step

    build, steps, *rest = cli.SCENARIOS[kind]
    monkeypatch.setitem(cli.SCENARIOS, kind, (build, tuple(
        st._replace(emit=run_only(st.emit)) for st in steps), *rest))
    rep, _ = run_scenario(_canonical_runs()[kind])
    assert rep.entries
    for fn, out in reports:
        default = inspect.signature(fn).parameters["tol"].default
        for e in out.entries:
            want = (killing.GRAM_MARGIN if e.name == "killing_gram_margin"
                    else default)
            assert e.tolerance == want, e.name


@pytest.mark.parametrize("name,old,new", [
    ("dini-lift", "eps = 1", "eps = one"),
    ("dini-lift", "eps = 1", "eps = 0.5"),
    ("mobility2", "c = 0.0", "c = zero"),
    ("mobility2", "dim = 2", "dim = two"),
    ("mobility2", "dim = 2", "dim = 2.5"),
    ("mobility2", "dim = 2", "dim = 2\nsignature = minus"),
    ("dini-pair", "window = 0.2 0.8", "window = low high"),
    ("dini-pair", "window = 0.2 0.8", "window = 0.2 0.5 0.8"),
    ("dini-lift", "rho = 0.0 1.0", "rho = zero one"),
    ("complex-pair", "rho_re = 0.0 1.0", "rho_re = 0.0 inf"),
    ("complex-pair", "rho_im = 0.0 0.0", "rho_im = 0.0 0.0 0.0"),
    ("complex-pair", "window = 0.2 0.8 0.2 0.8", "window = 0.2 0.8"),
    ("dini-pair", "window = 0.2 0.8", "window = 0.2 0.8\n[bogus]"),
    ("complex-pair", "kind = complex2d", "kind = cplx"),
    ("complex-pair", "window = 0.2 0.8 0.2 0.8", "window = 0.2 0.8 0.8 0.2"),
    ("dini-lift", "rho = 0.0 1.0", "rho ="),
], ids=["eps-word", "eps-fraction", "c-word", "dim-word", "dim-fraction",
        "signature-word", "window-words", "window-length", "rho-words",
        "rho_re-inf", "rho_im-length", "complex-window-length",
        "bogus-section", "kind-typo", "complex-window-reversed",
        "rho-empty"])
def test_bad_block_key_exits_2(tmp_path, capsys, name, old, new):
    text = (CONFIGS / f"{name}.cfg").read_text()
    assert old + "\n" in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old + "\n", new + "\n", 1))
    assert main(["run", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    key = new.split("\n")[-1].split("=")[0].strip()
    assert repr(key) in lines[0] and "block]" in lines[0]


@pytest.mark.parametrize("grid,rnd,dim,refused", [
    (2, 8, 12, True), (2, 8, 10, False), (3, 48, 6, False),
    # each side of the cap: n = 5001 / 5000 at dim 2, 3122 / 3121 at
    # dim 9, 988 / 987 at dim 12
    (1, 5000, 2, True), (1, 4999, 2, False),
    (2, 2610, 9, True), (2, 2609, 9, False),
    (1, 987, 12, True), (1, 986, 12, False)])
def test_sample_is_capped_by_its_memory(grid, rnd, dim, refused):
    # run time grows as samples * max(dim, 8)**4, and memory by one block
    # of samples: 4104 samples of a 12-dim chart (mobility2 at ell = 4
    # beside two constant blocks) are refused; 1032 of a 10-dim chart
    # fit, and up to dim 8 the cap is 5000
    run = cli.Run({"grid": grid, "random": rnd})
    chart = SimpleNamespace(window=SimpleNamespace(dim=dim), name="chart")
    n, w = grid ** dim + rnd, max(dim, 8)
    if refused:
        with pytest.raises(ConfigError) as exc:
            run.sample(chart)
        assert str(exc.value) == (
            f"'grid' = {grid} and 'random' = {rnd} draw {n} samples of a "
            f"{dim}-dim chart, which need more time than a run may take "
            f"({n} * {w}**4 > 5000 * 8**4)")
    else:
        assert run.sample(chart) == "chart"


def test_grid_flag_is_refused_as_unknown(capsys):
    # the grid is the config's alone: --grid is an unknown flag
    lines = refused_by_argparse(capsys, ["run", str(CONFIGS / "dini-pair.cfg"),
                                         "--grid", "0"])
    assert lines[1] == "cprojlab: error: unrecognized arguments: --grid 0"


# the one case of the table that also runs in a fresh process
IN_PROCESS = ("dini-pair", "--tol-scale", "1e-12")


@pytest.mark.parametrize("name,flag,value", [
    ("dini-pair", "--seed", "-1"),
    # --grid, --tol-scale and --report are gone
    ("dini-pair", "--grid", "100"),
    ("phase-portraits", "--grid", "3"),
    ("seeded-defect", "--tol-scale", "inf"),
    ("seeded-defect", "--tol-scale", "nan"),
    ("seeded-defect", "--tol-scale", "0"),
    ("dini-pair", "--grid", "2.5"),
    ("dini-pair", "--grid", "x"),
    ("seeded-defect", "--tol-scale", "abc"),
    IN_PROCESS,
    ("dini-pair", "--report", "missing/report.txt"),
    ("dini-pair", "--report", "."),
    ("dini-lift", "--report", "r.txt"),
])
def test_bad_flag_exits_2_before_sampling(monkeypatch, capsys, name, flag,
                                          value):
    # a bad seed gets one error line naming the flag, a removed flag
    # argparse's usage error; no sample point is drawn
    def boom(*a, **kw):
        raise AssertionError("sample points were drawn")

    monkeypatch.setattr(geometry.GridSpec, "points", boom)
    monkeypatch.setattr(geometry.Box, "random", boom)
    argv = ["run", str(CONFIGS / f"{name}.cfg"), flag, value]
    want = (f"error: --seed needs a value in [0, inf), got {value!r}\n"
            if flag == "--seed" else
            "usage: cprojlab [-h] {run} ...\ncprojlab: error: unrecognized "
            f"arguments: {flag} {value}\n")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert (code, *capsys.readouterr()) == (2, "", want)
    if (name, flag, value) == IN_PROCESS:
        assert run_cli(*argv) == (2, "", want)


def test_only_killing_detC_skips_the_killing_suite(monkeypatch, capsys):
    def boom(*a, **kw):
        raise AssertionError("the Killing suite ran")

    monkeypatch.setattr(cli, "killing_property_suite", boom)
    assert main(["run", str(CONFIGS / "mobility2.cfg"), "--only",
                 "killing_detC"]) == 0
    checks = [l.split()[0] for l in capsys.readouterr().out.splitlines()
              if l.startswith("check=")]
    assert checks == ["check=killing_detC"]


@pytest.mark.parametrize("name,only,built", [
    ("dini-pair", "zzz", False),
    # g1_constancy runs only for kind = 3x3
    ("jordan2", "g1", False),
    # spectrum_* may start with the prefix, but emits no such name
    ("appendix", "spectrum_zzz", True),
    # text that holds no prefix is refused before the build
    ("dini-pair", "", False),
    ("dini-pair", ",", False),
    ("dini-pair", " , ", False),
])
def test_only_selecting_nothing_exits_2(monkeypatch, capsys, name, only,
                                        built):
    builds = []

    def counted(orig):
        def wrapper(*a, **kw):
            builds.append(orig.__name__)
            return orig(*a, **kw)
        return wrapper

    for fname in ("build_quotient_pair", "solve_jordan_odes",
                  "build_mobility2"):
        monkeypatch.setattr(cli, fname, counted(getattr(cli, fname)))
    assert main(["run", str(CONFIGS / f"{name}.cfg"), "--only", only]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --only "), err
    assert bool(builds) == built


def test_appendix_samples_with_the_seed_flag(capsys):
    values = []
    for seed in ("0", "3"):
        assert main(["run", str(CONFIGS / "appendix.cfg"), "--seed", seed]) == 0
        values.append([l for l in capsys.readouterr().out.splitlines()
                       if l.startswith("check=ricci_identity ")])
    assert values[0] != values[1]


def test_kahler_chart_checks_derive_gamma_and_inverse_once(monkeypatch):
    # a constant block at c = 0 puts a zero eigenvalue in A, so the lift
    # also runs its shifted-spectrum steps; the projective
    # steps of the two pair scenarios read the same derived layer on h;
    # the lift and jordan2 read the curvature, dini-pair does not, and
    # jordan2 evaluates its three spectrum samples on their own
    cfgs = [parse_config_text(
        "scenario = lift\nroute = explicit\ngrid = 2\nrandom = 8\n"
        "[block]\nkind = real1d\neps = 1\nrho = 0.1 0.5 0.2\n"
        "window = 0.2 0.8\n[constant_block]\nc = 0.0\ndim = 2\n")]
    cfgs += [parse_config(CONFIGS / f"{n}.cfg")
             for n in ("jordan2", "dini-pair")]
    curvature = (1, 1, 0)
    args = argparse.Namespace(seed=0)
    seen = {"christoffel": [], "metric_inverse": []}
    for fname, calls in seen.items():
        orig = getattr(geometry, fname)

        def counted(g, *a, _orig=orig, _calls=calls, **kw):
            _calls.append((g.c[0], g.order))  # value array, order
            return _orig(g, *a, **kw)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("cprojlab")
                    and getattr(mod, fname, None) is orig):
                monkeypatch.setattr(mod, fname, counted)
    for cfg, reads_r in zip(cfgs, curvature, strict=True):
        for calls in seen.values():
            calls.clear()
        rep, run = run_scenario(cli.validate(cfg, args))
        assert rep.overall_pass
        kind, g0 = cfg.options["scenario"], run.f.g.c[0]
        assert sum(a is g0 for a, _ in seen["metric_inverse"]) == 1, kind
        # each sample's Gamma values from the first-order metric once, and
        # its full jet, in its block, from the order-2 metric once if the
        # curvature is read
        calls = seen["christoffel"]
        want = np.full(len(g0), reads_r)
        assert (christoffel_rows(calls, g0, 1) == 1).all(), kind
        assert (christoffel_rows(calls, g0, 2) == want).all(), kind
        assert (christoffel_rows(calls, g0) == 1 + want).all(), kind
        if cfg is cfgs[0]:
            assert len(rep.entries) > 9 and run.fl is run.f
            assert any(e.note.startswith("shift=") for e in rep.entries)


def _count_derivations(monkeypatch):
    """Counts of the characteristic-polynomial and inverse calls that
    the cprojlab modules make from here on."""
    from cprojlab import jets, kahler
    calls = {"complex_char_poly": 0, "jet_inv": 0}
    for owner, fname in ((kahler, "complex_char_poly"), (jets, "jet_inv")):
        orig = getattr(owner, fname)

        def counted(*a, _orig=orig, _name=fname, **kw):
            calls[_name] += 1
            return _orig(*a, **kw)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("cprojlab")
                    and getattr(mod, fname, None) is orig):
                monkeypatch.setattr(mod, fname, counted)
    return calls


@pytest.mark.parametrize("name,only,char_polys,inverses", [
    ("mobility2", None, 1, 3), ("mobility2", "partner,connection", 0, 3),
    # the Ricci step forms g^-1 on the block's fields, and
    # det_hessian_hermitian reads it there
    ("mobility2", "ricci_identity,det_", 1, 1),
    # one inverse each of h and L
    ("dini-pair", None, 0, 2)],
    ids=["None-1", "partner,connection-0", "ricci_identity,det_-1",
         "dini-pair"])
def test_mobility2_derives_char_poly_and_inverses_once(
        monkeypatch, capsys, name, only, char_polys, inverses):
    # the shifted determinant is formed from the fields' one
    # characteristic polynomial, and only when a step reads it; the
    # partner metric is built once: one inverse each of g, A and the
    # partner metric; each count is per block of samples (mobility2 has
    # seven, dini-pair one)
    blocks = []
    real = cli._sample_blocks
    monkeypatch.setattr(cli, "_sample_blocks", lambda n, b: (
        blocks.extend(real(n, b)) or real(n, b)))
    calls = _count_derivations(monkeypatch)
    argv = ["run", str(CONFIGS / f"{name}.cfg")]
    assert main(argv + (["--only", only] if only else [])) == 0
    if name == "mobility2":
        assert "note=shift=2" in capsys.readouterr().out
    assert len(blocks) == (7 if name == "mobility2" else 1)
    assert calls == {"complex_char_poly": len(blocks) * char_polys,
                     "jet_inv": len(blocks) * inverses}


def test_shifted_char_poly_is_the_exact_shift(corpus):
    # det_C(A + c Id) from the fields' characteristic polynomial equals
    # the determinant of the shifted endomorphism's own
    from cprojlab.kahler import complex_char_poly, complex_det
    for name, chart, _ in corpus:
        fl = chart.eval(sample(chart, 20), order=2)
        d = fl.A.c[0].shape[-1]
        for c in (2.0, -0.75):
            got = complex_det(fl, c)
            want = complex_char_poly(fl.A + c * np.eye(d), fl.J)[-1].real
            scale = max(geometry.max_abs(wc) for wc in want.c)
            for k, (gc, wc) in enumerate(zip(got.c, want.c, strict=True)):
                assert geometry.max_abs(gc - wc) <= 1e-13 * scale, \
                    (name, c, k)


def test_only_skips_unselected_work(monkeypatch, capsys):
    # every check suite the runner calls but the selected one raises, so
    # an unselected step that runs fails the test; the build evaluates
    # nothing, and the Lie suite evaluates the chart once, at order 1
    def boom(*a, **kw):
        raise AssertionError("an unselected check ran")

    for name, obj in list(vars(cli).items()):
        if (callable(obj) and getattr(obj, "__module__", "") in SUITES
                and name != "lie_residual_suite"):
            monkeypatch.setattr(cli, name, boom)
    orders = []
    orig = builders.KahlerChart.eval

    def counted(self, pts, order=2):
        orders.append(order)
        return orig(self, pts, order)

    monkeypatch.setattr(builders.KahlerChart, "eval", counted)
    assert main(["run", str(CONFIGS / "mobility2.cfg"), "--only",
                 "lie_v"]) == 0
    checks = [l.split()[0] for l in capsys.readouterr().out.splitlines()
              if l.startswith("check=")]
    assert checks == ["check=lie_v_metric", "check=lie_v_endo"]
    assert orders == [1]


def test_blowup_spectrum_counts_the_samples_it_reads(tmp_path, capsys):
    # one grid point and no random samples: the spectrum line reads one
    text = (CONFIGS / "jordan2.cfg").read_text()
    for old, new in (("grid = 5", "grid = 1"), ("random = 64", "random = 0")):
        assert f"\n{old}\n" in text
        text = text.replace(f"\n{old}\n", f"\n{new}\n", 1)
    cfg = tmp_path / "one.cfg"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--only", "blowup_formula"]) == 0
    line, = [l for l in capsys.readouterr().out.splitlines()
             if l.startswith("check=")]
    assert line.startswith("check=blowup_formula_vs_spectrum ")
    assert " samples=1 " in line


def test_mobility2_run_stays_under_its_memory_bound(monkeypatch, capsys):
    # the largest shipped run: its partner is built at order 1, omega is
    # evaluated one order below g, and the run walks its samples a block
    # at a time, each block's fields, Killing set and partner dropped
    # with it; the traced peak read 105 MB with the partner at order 2,
    # 77 MB with the whole batch's Christoffel jet and R held to the end,
    # 57.7 MB with omega built at order 2 and the powers held next to a
    # stacked copy of them, 52.6 MB with the whole R formed on a copy of
    # the fields and the polynomial's stack of the whole batch, 47.9-48.6
    # MB with the fields of the whole batch held, and reads 11.2 MB now;
    # the bound leaves about 4 MB
    runs = []
    real = cli.run_scenario

    def recorded(v, only=None):
        rep, r = real(v, only)
        runs.append(r)
        return rep, r

    monkeypatch.setattr(cli, "run_scenario", recorded)
    tracemalloc.start()
    try:
        code = main(["run", str(CONFIGS / "mobility2.cfg"), "--seed", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "check=partner_roundtrip" in capsys.readouterr().out
    assert peak <= 15e6
    assert "ghat" in vars(runs[0]) and runs[0].ghat.g.order == 1
    r = runs[0]
    # the shift is a number: no shifted copy of the fields is held
    assert not hasattr(cli.Run, "shifted") and "shifted" not in vars(r)
    # the last block's quantities: 121 samples a block, 51 in the last
    held = [r.f, r.fl, r.ghat]
    assert len(r.f.g.c[0]) == 777 - 6 * 121
    assert len({id(flds) for flds in held}) == 2  # f = fl, ghat
    # the fields hold only the derived quantities that are cached by
    # design, and no curvature
    assert all(derived_keys(flds) <= {"ginv", "gamma0", "lam", "det",
                                      "char_poly"} for flds in held)
    assert runs[0].f.omega.order == 1


def test_mobility2_peak_does_not_grow_with_its_samples(tmp_path, capsys):
    # the run holds one block of samples and the values of A at all of
    # them: at 777 and 1500 samples the traced peaks differ by less than
    # 2 MB (with the whole batch held they grew by 37 MB)
    text = (CONFIGS / "mobility2.cfg").read_text()
    assert "\nrandom = 48\n" in text
    peaks = []
    for rnd in (48, 771):
        path = tmp_path / f"random{rnd}.cfg"
        path.write_text(text.replace("\nrandom = 48\n", f"\nrandom = {rnd}\n"))
        tracemalloc.start()
        try:
            assert main(["run", str(path)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert " samples=1500 " in capsys.readouterr().out
    assert abs(peaks[1] - peaks[0]) < 2e6, peaks


@pytest.mark.parametrize("name,only", [
    ("dini-lift", "J_squared,domega,killing_lie"),
    ("seeded-defect", "domega,partner_roundtrip"),
    ("mobility2", "lie_v,eigenvalue,killing_detC"),
    ("jordan2", "blowup,proj"),
    ("phase-portraits", "circle_rho^2+,circle_rho("),
    ("mobility2", "ricci_identity,det_,partner"),
    ("appendix", "spectrum_,ricci"),
    ("mobility2", "det_,killing_detC,partner,connection"),
])
def test_only_output_equals_filtered_full_report(capsys, name, only):
    path = str(CONFIGS / f"{name}.cfg")
    prefixes = tuple(only.split(","))
    main(["run", path])
    full = capsys.readouterr().out.splitlines()[:-1]
    code = main(["run", path, "--only", only])
    out = capsys.readouterr().out.splitlines()[:-1]
    kept = [l for l in full if not l.startswith(("check=", "overall="))
            or l.startswith(tuple("check=" + p for p in prefixes))]
    ok = all(re.search(r" excluded=\d+ pass", l) for l in kept
             if l.startswith("check="))
    assert sum(l.startswith("check=") for l in kept) >= len(prefixes)
    assert out == kept + ["overall=" + ("pass" if ok else "FAIL")]
    assert code == (0 if ok else 1)
    if "connection" in prefixes:
        # the four shifted-spectrum lines, each noted with the shift
        checks = [l for l in out if l.startswith("check=")]
        assert len(checks) == 4
        assert all(l.endswith(" note=shift=2") for l in checks)


def _mutants(text):
    """Every one-line mutation of a config: a key deleted; a value set to a
    word, nan, inf, -inf, its negation, zero or nothing; a list one value
    short or long; a list or window reversed; a key or section misspelled."""
    lines = text.splitlines()
    out = []
    for i, line in enumerate(lines):
        key, eq, val = (t.strip() for t in line.partition("="))
        if line.startswith("["):
            news = [line.replace("[", "[x", 1)]
        elif eq and not key.startswith("#"):
            toks = val.split()
            neg = " ".join(t[1:] if t.startswith("-") else "-" + t
                           for t in toks)
            news = [None, f"{key}x = {val}", f"{key[:-1]} = {val}"] + [
                f"{key} = {w}" for w in ("word", "nan", "inf", "-inf", neg,
                                         "0", "")]
            if len(toks) > 1:
                news += [f"{key} = {' '.join(t)}"
                         for t in (toks[:-1], toks + toks[-1:], toks[::-1])]
        else:
            continue
        for new in news:
            out.append("\n".join(lines[:i] + [new] * (new is not None)
                                 + lines[i + 1:]) + "\n")
    return out


def _byte_mutants(data):
    """The config with one invalid UTF-8 byte at the start of each line."""
    starts = [0] + [i + 1 for i, b in enumerate(data[:-1]) if b == 0x0A]
    return [data[:i] + b"\xff" + data[i:] for i in starts]


# configs cheap enough to run in full; the others run --list-checks, which
# stops after validation
FUZZ_FULL = ("dini-pair", "appendix", "phase-portraits")
MUTANTS = [(p.stem, m.encode()) for p in sorted(CONFIGS.glob("*.cfg"))
           for m in _mutants(p.read_text())]
MUTANTS += [(p.stem, m) for p in sorted(CONFIGS.glob("*.cfg"))
            for m in _byte_mutants(p.read_bytes())]


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(MUTANTS))
def test_config_fuzzer(tmp_path, mutant):
    name, data = mutant
    path = tmp_path / "mutant.cfg"
    path.write_bytes(data)
    argv = ["run", str(path)] + ([] if name in FUZZ_FULL
                                 else ["--list-checks"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), data
    if b"\xff" in data:
        assert code == 2 and f"{path}: not UTF-8" in err.getvalue(), data
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1, data
        assert lines[0].startswith("error: "), data


# every shipped and test config by the curvature of its chart: curved
# when max |R^d_cab| / (1 + max |g|) exceeds 1e-10; the flows scenario
# builds no chart
CURVATURE = {
    "appendix": "curved", "complex-pair": "flat", "dini-lift": "flat",
    "dini-pair": "flat", "jordan2": "curved", "mobility2": "curved",
    "phase-portraits": None, "seeded-defect": "flat",
    "curved-complex": "curved", "curved-lift": "curved",
    "curved-pair": "curved", "definite-lift": "curved", "jordan3": "curved",
    "mixed": "curved",
}


def test_each_config_is_named_flat_or_curved():
    paths = sorted(CONFIGS.glob("*.cfg")) + sorted(TEST_CONFIGS.glob("*.cfg"))
    assert sorted(p.stem for p in paths) == sorted(CURVATURE)
    args = argparse.Namespace(seed=None)
    for path in paths:
        v = cli.validate(parse_config(path), args)
        r = cli.Run(v)
        cli.SCENARIOS[v["scenario"]][0](r)
        if not hasattr(r, "inst"):
            assert CURVATURE[path.stem] is None, path.stem
            continue
        size = (geometry.max_abs(r.f.curvature(slice(None)))
                / (1.0 + geometry.max_abs(r.f.g.c[0])))
        kind = "curved" if size > 1e-10 else "flat"
        assert CURVATURE[path.stem] == kind, (path.stem, size)


# every shipped and test config by the number of negative eigenvalues of
# its metric at each sample; the flows scenario builds no chart
NEGATIVE_EIGENVALUES = {
    "appendix": 2, "complex-pair": 2, "dini-lift": 2, "dini-pair": 1,
    "jordan2": 1, "mobility2": 2, "phase-portraits": None,
    "seeded-defect": 2, "curved-complex": 2, "curved-lift": 2,
    "curved-pair": 1, "definite-lift": 0, "jordan3": 1, "mixed": 2,
}


def test_each_config_is_named_by_the_signature_of_its_metric():
    # eps = -1 on the first block of curved-lift makes g definite; every
    # config with eps = 1 on its real blocks has an indefinite g
    assert sorted(p.stem for p in ALL_CONFIGS) == sorted(NEGATIVE_EIGENVALUES)
    args = argparse.Namespace(seed=None)
    for path in ALL_CONFIGS:
        v = cli.validate(parse_config(path), args)
        r = cli.Run(v)
        cli.SCENARIOS[v["scenario"]][0](r)
        if not hasattr(r, "inst"):
            assert NEGATIVE_EIGENVALUES[path.stem] is None, path.stem
            continue
        ev = np.linalg.eigvalsh(r.inst.eval(r.pts, order=0).g.c[0])
        # no eigenvalue near 0, so the count is not a rounding accident
        assert np.min(np.abs(ev)) > 1e-3, path.stem
        negative = np.count_nonzero(ev < 0.0, axis=1)
        assert set(negative) == {NEGATIVE_EIGENVALUES[path.stem]}, path.stem



def _reports(paths):
    """The exit code, stderr and non-comment stdout lines of each config
    of ``paths`` run at seeds 0 and 3."""
    out = {}
    for path in paths:
        for seed in ("0", "3"):
            o, e = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
                code = main(["run", str(path), "--seed", seed])
            out[path.stem, seed] = (code, e.getvalue(), [
                l for l in o.getvalue().splitlines() if not l.startswith("#")])
    return out


def _split(monkeypatch, rows):
    """Make a run take its samples ``rows`` a block, and the blocks of the
    characteristic polynomial hold as many; a list of ``rows`` splits the
    first samples by it and takes the rest as one block, and, as
    ``_sample_blocks``, makes no block empty."""
    real = builders._sample_blocks

    def blocks(n, sample_bytes):
        if isinstance(rows, list):
            cuts = [c for c in np.cumsum([0] + rows) if c < n] + [n]
            return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        monkeypatch.setattr(builders, "BLOCK_BYTES", rows * sample_bytes)
        return real(n, sample_bytes)

    monkeypatch.setattr(cli, "_sample_blocks", blocks)


ALL_CONFIGS = sorted(CONFIGS.glob("*.cfg")) + sorted(TEST_CONFIGS.glob("*.cfg"))


@pytest.fixture(scope="module")
def whole_reports():
    # every config with its samples in one block, as the whole batch
    with pytest.MonkeyPatch.context() as mp:
        _split(mp, 10 ** 9)
        return _reports(ALL_CONFIGS)


# a block of 7 or 50 samples, the shipped budget (121 samples a block at
# dim 6, one block below), and one sample a block over the first 40
# samples; each sample alone over the whole run takes 40 s at 777
# samples a run, so the last stands in for it
@pytest.mark.parametrize("rows", [7, 50, None, [1] * 40],
                         ids=["7", "50", "shipped", "1x40"])
def test_blocked_run_keeps_every_report_byte(monkeypatch, whole_reports,
                                             rows):
    # an entry of a block keeps the maxima (and a margin's minimum) its
    # value is formed from, so the blocks merge to the whole batch's
    # report, line for line, and to its exit code
    if rows is not None:
        _split(monkeypatch, rows)
    got = _reports(ALL_CONFIGS)
    assert got.keys() == whole_reports.keys()
    for key, want in whole_reports.items():
        assert got[key] == want, key
    assert {code for code, _, _ in got.values()} == {0, 1}


def _run_lines(path, *argv):
    """Exit code, stderr and non-comment stdout lines of one run."""
    o, e = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
        code = main(["run", str(path), *argv])
    return code, e.getvalue(), [l for l in o.getvalue().splitlines()
                                if not l.startswith("#")]



def _built_run(path):
    """The run of the config at ``path``, built, with nothing evaluated."""
    run = cli.Run(cli.validate(parse_config(path),
                               argparse.Namespace(seed=None)))
    cli.SCENARIOS[run.v["scenario"]][0](run)
    return run


def test_nan_in_a_later_block_reads_nan(monkeypatch):
    # a NaN in the first derivatives of A at sample 300 of mobility2, in
    # the third of its seven blocks: every line that reads them is NaN
    # and FAILs, as in the whole batch
    path = CONFIGS / "mobility2.cfg"
    bad = _built_run(path).pts[300]
    real = builders.KahlerChart.eval

    def with_nan(self, pts, order=2):
        f = real(self, pts, order)
        if order:
            f.A.c[1][(pts == bad).all(axis=1), 0, 0] = np.nan
        return f

    monkeypatch.setattr(builders.KahlerChart, "eval", with_nan)
    got = _run_lines(path)
    _split(monkeypatch, 10 ** 9)
    assert got == _run_lines(path)
    code, _, lines = got
    assert code == 1
    for name in ("cproj_compat", "killing_lie_A", "killing_gram_margin",
                 "ricci_identity"):
        line, = [l for l in lines if l.startswith(f"check={name} ")]
        assert " value=nan " in line and line.endswith(" FAIL"), line


def test_non_finite_a_is_refused_before_its_spectrum(monkeypatch):
    # a NaN in the values of A at the first sample of each evaluation of
    # dini-lift: the spectrum's shift refuses the run with one error line
    # and no report, where the eigenvalue solve raised its own error
    path = CONFIGS / "dini-lift.cfg"
    n = len(_built_run(path).pts)
    real = builders.KahlerChart.eval

    def with_nan(self, pts, order=2):
        f = real(self, pts, order)
        f.A.c[0][0, 0, 0] = np.nan
        return f

    monkeypatch.setattr(builders.KahlerChart, "eval", with_nan)
    assert _run_lines(path) == (
        2, f"error: A is not finite at 1 of {n} samples\n", [])


def test_a_fault_in_a_later_block_is_not_checked_again(monkeypatch):
    # a plain ValueError, which no guard of the package raises, from the
    # Ricci step in the second of mobility2's blocks leaves the run: the
    # whole batch, whose pass would hide the fault, is not checked again
    real, seen, passes = cli.ricci_identity_check, [], []

    def faulty(fl):
        seen.append(len(fl.g.c[0]))
        if len(seen) == 2:
            raise ValueError("a fault in the block path")
        return real(fl)

    check = cli.Run.check
    monkeypatch.setattr(cli, "ricci_identity_check", faulty)
    monkeypatch.setattr(cli.Run, "check", lambda self, steps, whole=False: (
        passes.append(whole) or check(self, steps, whole)))
    with pytest.raises(ValueError, match="a fault in the block path"):
        main(["run", str(CONFIGS / "mobility2.cfg")])
    assert passes == [False] and len(seen) == 2


def test_non_finite_metric_in_later_blocks_is_counted_over_the_run(
        monkeypatch):
    # an infinite first derivative of g at samples 300 and 500 of
    # mobility2, in its third and fifth blocks: one error line that
    # counts them over the run, as the whole batch's
    path = CONFIGS / "mobility2.cfg"
    bad = _built_run(path).pts[[300, 500]]
    real = builders.KahlerChart.eval

    def with_inf(self, pts, order=2):
        f = real(self, pts, order)
        if order:
            hit = (pts[:, None] == bad[None]).all(axis=2).any(axis=1)
            f.g.c[1][hit, 0, 0, 0] = np.inf
        return f

    monkeypatch.setattr(builders.KahlerChart, "eval", with_inf)
    got = _run_lines(path)
    _split(monkeypatch, 10 ** 9)
    assert got == _run_lines(path) == (2, (
        "error: the metric or its derivatives are not finite at 2 of 777 "
        "samples\n"), [])


@pytest.mark.parametrize("large", [True, False])
def test_guard_in_a_later_block_reads_as_the_whole_batch(monkeypatch,
                                                         large):
    # dini-pair at 7 samples a block, L skewed at sample 16 in its third
    # block: the h-selfadjoint guard decides at the run's scale and names
    # the run's sample, as in the whole batch.  The small skew is above
    # the guard's bound at the scale of samples 14-20 and below it at the
    # run's, so the run passes
    path = CONFIGS / "dini-pair.cfg"
    run = _built_run(path)
    f = run.f
    size = np.abs(np.einsum("nac,ncb->nab", f.g.c[0], f.A.c[0])).max(
        axis=(1, 2))
    lo, hi = 1.0 + size[14:21].max(), 1.0 + size.max()
    assert hi > 1.01 * lo
    skew = 1e-3 if large else 1e-8 * np.sqrt(lo * hi)
    real = builders.QuotientPair.eval

    def skewed(self, pts, order=2):
        f = real(self, pts, order)
        hit = (pts == run.pts[16]).all(axis=1)
        f.A.c[0][hit, 0, 1] += skew / f.g.c[0][hit, 0, 0]
        return f

    monkeypatch.setattr(builders.QuotientPair, "eval", skewed)
    _split(monkeypatch, 7)
    got = _run_lines(path)
    _split(monkeypatch, 10 ** 9)
    assert got == _run_lines(path)
    code, err, lines = got
    if large:
        assert (code, lines) == (2, [])
        assert err == (f"error: L is not h-selfadjoint: residual "
                       f"{skew / hi:.3e} worst at sample 16\n")
    else:
        assert (code, err) == (0, "")
