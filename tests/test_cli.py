import argparse
import fnmatch
import subprocess
import sys
from pathlib import Path

import pytest

from cprojlab import geometry
from cprojlab.builders import (
    CompatiblePairSpec, ConstantBlock, Real1D, build_quotient_pair,
    lift_pair,
)
from cprojlab.config import (
    ConfigError, parse_config_text, serialize_config,
)
from cprojlab.cli import _kahler_chart_checks, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cprojlab.cli", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_config_roundtrip():
    text = (CONFIGS / "dini-lift.cfg").read_text()
    cfg = parse_config_text(text)
    assert cfg.kind == "lift"
    assert cfg.opt("grid") == 4
    assert len(cfg.blocks("block")) == 2
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert parse_config_text(serialize_config(again)) == again


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("scenario = lift\nbad line without equals\n")
    with pytest.raises(ConfigError, match="scenario kind"):
        parse_config_text("scenario = nonsense\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("[unterminated\n")


def test_dini_lift_passes(tmp_path):
    code, out, err = run_cli("run", str(CONFIGS / "dini-lift.cfg"),
                             "--report", str(tmp_path / "r.txt"))
    assert code == 0, out + err
    assert "overall=pass" in out
    assert (tmp_path / "r.txt").exists()
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


def test_tol_scale_flag():
    # scaling tolerances way down turns machine-precision passes into
    # failures, proving the knob reaches the checks
    code, out, _ = run_cli("run", str(CONFIGS / "dini-pair.cfg"),
                           "--tol-scale", "1e-12")
    assert code == 1


def test_grid_and_seed_flags():
    code, out, _ = run_cli("run", str(CONFIGS / "dini-pair.cfg"),
                           "--grid", "3", "--seed", "5")
    assert code == 0
    assert "provenance.seed=5" in out


@pytest.mark.parametrize("old,new", [
    ("window = 0.2 0.8", "window = 0.8 0.2"),   # invalid box bounds
    ("rho = 2.0 1.0", "rho = 0.0 1.0"),         # coinciding rho blocks
], ids=["reversed-window", "coinciding-rho"])
def test_unbuildable_instance_exits_2(tmp_path, old, new):
    text = (CONFIGS / "dini-pair.cfg").read_text()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new, 1))
    code, out, err = run_cli("run", str(cfg))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


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


def test_cli_import_skips_scipy_integrate():
    code = ("import sys, cprojlab.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_missing_config_is_reported():
    code, out, err = run_cli("run", "/nonexistent.cfg")
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize("name", ["complex-pair", "mobility2", "jordan2",
                                  "appendix"])
def test_remaining_scenarios_pass(capsys, name):
    code, out, err = run_cli("run", str(CONFIGS / f"{name}.cfg"))
    assert code == 0, out + err
    assert "overall=pass" in out
    # every reported check is listed; a line's first word is the name
    assert main(["run", str(CONFIGS / f"{name}.cfg"), "--list-checks"]) == 0
    listed = [l.split()[0] for l in capsys.readouterr().out.splitlines()]
    reported = [l.split()[0].removeprefix("check=")
                for l in out.splitlines() if l.startswith("check=")]
    assert reported
    for nm in reported:
        assert any(fnmatch.fnmatchcase(nm, p) for p in listed), nm


@pytest.mark.parametrize("name,key,value", [
    ("dini-lift", "grid", "four"),
    ("dini-lift", "grid", "4.5"),
    ("dini-lift", "grid", "0"),
    ("dini-pair", "random", "many"),
    ("dini-pair", "random", "-1"),
    ("dini-pair", "seed", "x"),
    ("phase-portraits", "seed", "x"),
    ("mobility2", "ell", "one"),
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


@pytest.mark.parametrize("name,old,new", [
    ("dini-lift", "eps = 1", "eps = one"),
    ("dini-lift", "eps = 1", "eps = 0.5"),
    ("mobility2", "c = 0.0", "c = zero"),
    ("mobility2", "dim = 2", "dim = two"),
    ("mobility2", "dim = 2", "dim = 2.5"),
    ("mobility2", "dim = 2", "dim = 2\nsignature = minus"),
], ids=["eps-word", "eps-fraction", "c-word", "dim-word", "dim-fraction",
        "signature-word"])
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


def test_grid_flag_below_one_exits_2(capsys):
    assert main(["run", str(CONFIGS / "dini-pair.cfg"), "--grid", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "--grid" in err


def test_kahler_chart_checks_derive_gamma_and_inverse_once(monkeypatch):
    # a constant block at c = 0 puts a zero eigenvalue in A, so the
    # sequence also runs its spectrum-shifted copy of the fields
    qp = build_quotient_pair(CompatiblePairSpec(
        (Real1D(1, (0.1, 0.5, 0.2), (0.2, 0.8)),), name="ell1"))
    chart = lift_pair(qp, (ConstantBlock(0.0, 2),), route="explicit")
    cfg = parse_config_text("scenario = lift\ngrid = 2\nrandom = 8\n")
    args = argparse.Namespace(grid=None, seed=0)
    seen = {"christoffel": [], "metric_inverse": []}
    for fname, calls in seen.items():
        orig = getattr(geometry, fname)

        def counted(g, *a, _orig=orig, _calls=calls, **kw):
            _calls.append(g.c[0])      # the metric's value array
            return _orig(g, *a, **kw)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("cprojlab")
                    and getattr(mod, fname, None) is orig):
                monkeypatch.setattr(mod, fname, counted)
    rep, fl = _kahler_chart_checks(chart, cfg, args, 1.0, [(0.0, 1)])
    assert rep.overall_pass
    assert any(e.note.startswith("shift=") for e in rep.entries)
    for fname, calls in seen.items():
        assert sum(a is fl.g.c[0] for a in calls) == 1, fname
