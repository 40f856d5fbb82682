"""One workload process: set up, run passes in a closed loop, gate them.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
It prints ``READY`` once set-up is done and, unless ``--setup-only``, one
JSON line with the pass times, gate results and (traced) layer metrics.
"""

import sys
import time

T_FIRST = time.monotonic()
import cprojlab.cli  # noqa: E402,F401  (the import every workload pays)
T_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer, layer_values, merge, top_self  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP = {"corpus-certify": W.corpus_setup,
         "trajectories": W.trajectories_setup,
         "cli-scenarios": lambda seed: None}


def segments(workload, state, args, traced):
    if workload == "corpus-certify":
        return W.corpus_segments(state)
    if workload == "trajectories":
        return W.trajectories_segments(state)
    return W.cli_segments(ROOT, args.seed,
                          HERE / "cli_probe.py" if traced else None)


def blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def environment(seed):
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": threads, "seed": seed,
           "machine": platform.machine()}
    too_many = {k: v for k, v in threads.items() if v > nproc}
    if too_many:
        raise SystemExit(f"BLAS threads {too_many} exceed nproc={nproc}; "
                         f"set OPENBLAS_NUM_THREADS <= {nproc}")
    return env


def timed_pass(segs, gate, workload):
    """Run one pass; returns (wall s, speed-normalized s, payloads).

    A speed probe runs before the first segment and after each one, so
    every segment is normalized by the machine speed around it.
    """
    wall = norm = 0.0
    payloads = []
    before = speed.probe()
    for seg in segs:
        t0 = time.perf_counter()
        try:
            out = seg(gate)
        except Exception as exc:  # a build or check that raises fails
            traceback.print_exc()
            gate.raised(workload, exc)
            out = None
        dt = time.perf_counter() - t0
        after = speed.probe()
        wall += dt
        norm += speed.normalize(dt, before, after)
        before = after
        if out is not None:
            payloads.append(out)
    return wall, norm, payloads


def cli_rollup(payloads, acc, proc):
    """Fold the traced CLI children of one pass into ``acc``/``proc``."""
    for t0, t1, text in payloads:
        data = json.loads(text)
        merge(acc, data["roll"])
        proc["interp_s"].append(data["t_first"] - t0)
        proc["import_s"].append(data["import_s"])
        proc["run_s"].append(data["run_s"])
        proc["process_s"].append(t1 - t0)
        # interpreter start and import are spans of the child process too
        for span, dur in (("cli.interp", data["t_first"] - t0),
                          ("cli.import", data["import_s"])):
            for key in ("self", "incl"):
                acc.setdefault(key, {})
                acc[key][span] = acc[key].get(span, 0.0) + dur


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=T_FIRST,
                    help="parent's monotonic clock when it started us")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = args.workload

    t_setup = time.monotonic()
    state = SETUP[wl](args.seed)
    t_ready = time.monotonic()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    env = environment(args.seed)
    gate = W.Gate()
    tracer = Tracer() if args.trace else None
    out = {"env": env}
    acc = {"n": 0}
    proc = {"interp_s": [], "import_s": [], "run_s": [], "process_s": []}
    deadline = time.perf_counter() + args.seconds
    if tracer is not None:
        # the set-up again, traced, for builders.build_s and fit_v_s
        tracer.install()
        try:
            SETUP[wl](args.seed)
        finally:
            tracer.uninstall()
        setup_roll = tracer.rollup()
        from kernels import kernel_timings
        kernels = kernel_timings()
    wall, passes, traced = [], [], []
    while not passes or time.perf_counter() < deadline:
        dt, dn, _ = timed_pass(segments(wl, state, args, False), gate, wl)
        wall.append(dt)
        passes.append(dn)
        if gate.failed:
            break
        if tracer is None:
            continue
        segs = segments(wl, state, args, True)
        if wl == "cli-scenarios":
            dt, dn, payloads = timed_pass(segs, gate, wl)
            cli_rollup(payloads, acc, proc)
        else:
            tracer.install()
            try:
                dt, dn, _ = timed_pass(segs, gate, wl)
            finally:
                tracer.uninstall()
            merge(acc, tracer.rollup())
        traced.append(dn)
        acc["n"] += 1
        if gate.failed:
            break

    out.update(pass_s=passes, wall_pass_s=wall, attempted=gate.attempted,
               failed=gate.failed, fail_frac=gate.fail_frac,
               mismatches=gate.mismatches, worst_ratio=gate.worst)
    ru = resource.getrusage(resource.RUSAGE_CHILDREN
                            if wl == "cli-scenarios"
                            else resource.RUSAGE_SELF)
    out["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    if tracer is not None:
        out["traced_pass_s"] = traced
        overhead = (statistics.median(traced) / statistics.median(passes)
                    - 1.0) if traced else 0.0
        if wl == "cli-scenarios":
            process = {k: statistics.fmean(v) if v else 0.0
                       for k, v in proc.items()}
            n = max(acc["n"], 1)
            setup_roll = {"time": {
                g: acc.get("time", {}).get(g, 0.0) / n
                for g in ("builders.build", "builders.fit_v")}}
        else:
            # this process is the workload's fresh interpreter
            process = {"interp_s": T_FIRST - args.t0,
                       "import_s": T_IMPORTED - T_FIRST,
                       "run_s": t_ready - t_setup,
                       "process_s": t_ready - args.t0}
        out["layer"] = layer_values(acc, setup_roll, kernels, process,
                                    overhead)
        out["top_self"] = top_self(acc)
        out["spans_per_pass"] = acc.get("spans", 0) / max(acc["n"], 1)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
