#!/usr/bin/env python3
"""cprojlab benchmark.

    python3 perfbench/run.py --workload corpus-certify --seed 1 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 \
        --out bench.json

Run from a checkout of the repository.  ``--trace 0`` measures the
end-to-end metrics (set-up time, pass time, peak memory) with nothing
patched; ``--trace 1`` is a separate run that reports the per-layer
metrics from spans.  ``--workload all`` runs every workload both ways.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check's verdict differs from the expected one.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# fresh processes timed to ready per run; setup_s is their median
SETUP_SAMPLES = 5
# a run ends within this many seconds past --seconds, or it fails
SLACK_S = 140


class BenchError(RuntimeError):
    pass


def check_checkout():
    missing = [p for p in ("src/cprojlab/__init__.py", "configs")
               if not (ROOT / p).exists()]
    if missing or not W.configs(ROOT):
        raise BenchError(f"not a cprojlab checkout: {ROOT} lacks "
                         f"{', '.join(missing) or 'configs/*.cfg'}")


def worker_cmd(wl, seed, seconds, trace, t0, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", wl,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--t0", repr(t0)]
    return cmd + (["--setup-only"] if setup_only else [])


def time_to_ready(wl, seed, env):
    """Fresh process until the workload is ready: interpreter start,
    ``import cprojlab.cli`` and instance construction.  Returns wall
    seconds and speed-normalized seconds."""
    before = speed.probe()
    t0 = time.monotonic()
    with subprocess.Popen(worker_cmd(wl, seed, 0, 0, t0, True), cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True) as p:
        ready = None
        for line in p.stdout:
            if line.startswith("READY"):
                ready = time.monotonic() - t0
        rc = p.wait(timeout=60)
    if rc != 0 or ready is None:
        raise BenchError(f"{wl} set-up exited {rc}")
    return ready, speed.normalize(ready, before, speed.probe())


def run_worker(wl, seed, seconds, trace, env):
    t0 = time.monotonic()
    with subprocess.Popen(worker_cmd(wl, seed, seconds, trace, t0),
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as p:
        try:
            out, _ = p.communicate(timeout=seconds + SLACK_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise BenchError(f"{wl} did not finish in {seconds + SLACK_S}s")
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{wl} worker exited {p.returncode}")
    return json.loads(lines[-1])


def run_workload(wl, seed, seconds, trace, env):
    """One run: returns (result line, full record)."""
    setups = ([] if trace else
              [time_to_ready(wl, seed, env) for _ in range(SETUP_SAMPLES)])
    data = run_worker(wl, seed, seconds, trace, env)
    if trace:
        metrics = data["layer"]
    else:
        values = {"setup_s": statistics.median(s for _, s in setups),
                  "pass_s": statistics.median(data["pass_s"]),
                  "peak_rss_mb": data["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    result = {"correct": data["failed"] == 0,
              "attempted": data["attempted"], "failed": data["failed"],
              "metrics": metrics}
    record = dict(data, workload=wl, trace=trace, seconds=seconds,
                  setup_s=[s for _, s in setups],
                  wall_setup_s=[w for w, _ in setups], metrics=metrics)
    return result, record


def print_run(rec):
    wl, env = rec["workload"], rec["env"]
    print(f"== {wl} trace={rec['trace']} seed={env['seed']} "
          f"seconds={rec['seconds']:g}")
    print(f"   env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} passes={len(rec['pass_s'])}")
    wall = {k: statistics.median(rec[f"wall_{k}"]) if rec[f"wall_{k}"]
            else 0.0 for k in ("setup_s", "pass_s")}
    samples = {"setup_s": f"median of {len(rec['setup_s'])} fresh processes;"
                          f" wall {wall['setup_s']:.4f} s",
               "pass_s": f"median of {len(rec['pass_s'])} passes, "
                         f"min {min(rec['pass_s']):.4f} "
                         f"max {max(rec['pass_s']):.4f};"
                         f" wall {wall['pass_s']:.4f} s",
               "peak_rss_mb": "largest child process"
               if wl == "cli-scenarios" else "workload process"}
    if rec["trace"]:
        samples["trace.overhead_frac"] = (
            f"median of {len(rec['traced_pass_s'])} traced passes over "
            f"median of {len(rec['pass_s'])} untraced")
        samples["jets.out_mb"] = "computed from output array sizes"
    for name, m in rec["metrics"].items():
        note = samples.get(name, "")
        print(f"   {name:36s} {m['value']:14.6g} {m['unit']:12s} {note}")
    print(f"   {'fail_frac':36s} {rec['fail_frac']:14.6g} {'frac':12s} "
          f"{rec['failed']} of {rec['attempted']} verdicts differ "
          f"from the expected set")
    for line in rec["mismatches"]:
        print(f"   MISMATCH {line}")
    worst = sorted(rec["worst_ratio"].items(), key=lambda kv: -kv[1])[:5]
    print("   worst value/tol: " + ", ".join(f"{k}={v:.3g}"
                                            for k, v in worst))
    if rec["trace"]:
        print("   top self time per traced pass:")
        for row in rec["top_self"]:
            print(f"     {row['span']:40s} self {row['self_s']:10.4f} s"
                  f"   incl {row['incl_s']:10.4f} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the full records as JSON here")
    args = ap.parse_args(argv)
    try:
        check_checkout()
        compileall.compile_dir(str(ROOT / "src"), quiet=1)
        env = W.child_env(ROOT)
        plan = ([(wl, t) for wl in W.WORKLOADS for t in (0, 1)]
                if args.workload == "all" else [(args.workload, args.trace)])
        results, records = [], []
        for wl, trace in plan:
            result, record = run_workload(wl, args.seed, args.seconds,
                                          trace, env)
            print_run(record)
            results.append(result)
            records.append(record)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(json.dumps(records, indent=1) + "\n")
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{wl}/{name}": m
                             for (wl, _), r in zip(plan, results)
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
