"""Span recorder for the traced benchmark runs.

``Tracer.install()`` wraps the public functions of each cprojlab layer
(L0 jets, L1 geometry, L2 builders, L3 check suites).  It patches the
defining module's attribute, every name another loaded ``cprojlab`` module
imported from it, and class attributes for methods.  ``uninstall()``
restores the originals, so untraced and traced passes run in one process.

A span is (name, start, end, parent).  Spans stay in flat in-memory arrays
until ``rollup()`` turns them into per-metric totals and per-name self
times, then are cleared.  Self time is a span's duration minus the
durations of its direct children; children never overlap, because every
workload is a single-threaded closed loop.
"""

import functools
import importlib
import sys
import weakref
from array import array
from time import perf_counter

# (module, attribute, group).  A dotted attribute names a method.  Every
# group is one per-layer metric family; a span counts toward its group's
# calls and inclusive time only when no enclosing span is in the same
# group, so nested calls are not counted twice.
TARGETS = [
    ("jets", "Jet.__mul__", "jets.mul"),
    ("jets", "jet_einsum", "jets.einsum"),
    ("jets", "jet_inv", "jets.inv"),
    ("jets", "jet_det", "jets.det"),
    ("geometry", "metric_inverse", "geometry.metric_inverse"),
    ("geometry", "christoffel", "geometry.christoffel"),
    ("geometry", "riemann", "geometry.riemann"),
    ("geometry", "lie_metric", "geometry.lie"),
    ("geometry", "lie_two_form", "geometry.lie"),
    ("geometry", "lie_endo", "geometry.lie"),
    ("geometry", "lie_scalar", "geometry.lie"),
    ("geometry", "lie_vector", "geometry.lie"),
    ("geometry", "lie_bracket", "geometry.lie"),
    ("geometry", "lie_christoffel", "geometry.lie"),
    ("builders", "build_quotient_pair", "builders.build"),
    ("builders", "lift_pair", "builders.build"),
    ("builders", "build_main_example", "builders.build"),
    ("builders", "build_mobility2", "builders.build"),
    ("builders", "build_mobility2_projective", "builders.build"),
    ("builders", "solve_jordan_odes", "builders.build"),
    ("builders", "fit_mobility_field", "builders.fit_v"),
    ("builders", "QuotientPair.eval", "builders.eval"),
    ("builders", "KahlerChart.eval", "builders.eval"),
    ("builders", "ProjectiveMobilityChart.eval", "builders.eval"),
    ("builders", "KahlerChart.v_field", "builders.v_field"),
    ("builders", "ProjectiveMobilityChart.v_field", "builders.v_field"),
    ("kahler", "check_kahler", "kahler.checks"),
    ("kahler", "cproj_residual", "kahler.checks"),
    ("kahler", "proj_residual", "kahler.checks"),
    ("kahler", "hamiltonian_killing_check", "kahler.checks"),
    ("kahler", "connection_difference_check", "kahler.checks"),
    ("kahler", "eigenvector_gradient_residual", "kahler.checks"),
    ("kahler", "commuting_gradients_residual", "kahler.checks"),
    ("kahler", "mu_hat_duality_residual", "kahler.checks"),
    ("kahler", "complex_char_poly", "kahler.char_poly"),
    ("killing", "build_canonical_killing", "killing.build"),
    ("killing", "killing_property_suite", "killing.suite"),
    ("killing", "a_on_k_recurrence", "killing.suite"),
    ("killing", "totally_geodesic_residual", "killing.suite"),
    ("curvspec", "ricci_identity_check", "curvspec.checks"),
    ("curvspec", "real_ricci_identity_check", "curvspec.checks"),
    ("curvspec", "compare_with_numeric", "curvspec.checks"),
    ("curvspec", "fppp_limit_check", "curvspec.checks"),
    ("curvspec", "third_order_residual", "curvspec.checks"),
    ("flows", "transport_check", "flows.transport"),
    ("flows", "integrate_jplanar", "flows.geodesic"),
    ("flows", "lie_residual_suite", "flows.checks"),
    ("flows", "volume_coefficient", "flows.checks"),
    ("flows", "jplanarity_residual", "flows.checks"),
]

# groups whose outputs are Jets: their coefficient bytes feed jets.out_mb
_JET_OUTPUT = {"jets.mul", "jets.einsum", "jets.inv", "jets.det"}
# groups whose first argument is a field: calls per distinct field
# (keyed by the identity of its value array) measure repeated work
_PER_FIELD = {"geometry.metric_inverse", "geometry.christoffel",
              "kahler.char_poly"}

# metric name -> (unit, how it is derived); the traced run reports
# every one of these for every workload
LAYER_METRICS = {}
for _g in ("einsum", "inv", "det", "mul"):
    LAYER_METRICS[f"jets.{_g}_calls"] = ("count", ("calls", f"jets.{_g}"))
    LAYER_METRICS[f"jets.{_g}_s"] = ("s", ("time", f"jets.{_g}"))
LAYER_METRICS["jets.out_mb"] = ("MB", ("counter", "jets.out_bytes"))
for _k in ("matmul", "inv", "det", "mul"):
    for _d in (6, 8, 10):
        LAYER_METRICS[f"jets.{_k}_o3_d{_d}_ms"] = ("ms", ("kernel", None))
for _g in ("metric_inverse", "christoffel", "riemann"):
    LAYER_METRICS[f"geometry.{_g}_calls"] = (
        "count", ("calls", f"geometry.{_g}"))
for _g in ("metric_inverse", "christoffel", "riemann", "lie"):
    LAYER_METRICS[f"geometry.{_g}_s"] = ("s", ("time", f"geometry.{_g}"))
LAYER_METRICS.update({
    "geometry.metric_inverse_per_field": (
        "calls/field", ("per_field", "geometry.metric_inverse")),
    "geometry.christoffel_per_field": (
        "calls/field", ("per_field", "geometry.christoffel")),
    "builders.build_s": ("s", ("setup_time", "builders.build")),
    "builders.fit_v_s": ("s", ("setup_time", "builders.fit_v")),
    "builders.eval_calls": ("count", ("calls", "builders.eval")),
    "builders.eval_points": ("count", ("counter", "builders.eval_points")),
    "builders.eval_s": ("s", ("time", "builders.eval")),
    "builders.v_field_calls": ("count", ("calls", "builders.v_field")),
    "builders.v_field_s": ("s", ("time", "builders.v_field")),
    "kahler.s": ("s", ("time", "kahler.checks")),
    "kahler.char_poly_calls": ("count", ("calls", "kahler.char_poly")),
    "kahler.char_poly_s": ("s", ("time", "kahler.char_poly")),
    "kahler.char_poly_per_field": (
        "calls/field", ("per_field", "kahler.char_poly")),
    "killing.build_s": ("s", ("time", "killing.build")),
    "killing.suite_s": ("s", ("time", "killing.suite")),
    "curvspec.s": ("s", ("time", "curvspec.checks")),
    "flows.transport_s": ("s", ("time", "flows.transport")),
    "flows.geodesic_s": ("s", ("time", "flows.geodesic")),
    "cli.interp_s": ("s", ("process", "interp_s")),
    "cli.import_s": ("s", ("process", "import_s")),
    "cli.run_s": ("s", ("process", "run_s")),
    "cli.process_s": ("s", ("process", "process_s")),
    "trace.overhead_frac": ("frac", ("overhead", None)),
})


def _resolve(module, attr):
    obj = importlib.import_module(f"cprojlab.{module}")
    owner, _, name = attr.rpartition(".")
    if owner:
        obj = getattr(obj, owner)
    return obj, name


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.span_names = []            # span name per name id
        self.span_group = []            # group per name id
        self._name_id = {}
        self._patches = []              # (owner, attr, original)
        # the wrappers hold these arrays; they are emptied, never rebound
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.eval_depth = 0
        self.counters = {"jets.out_bytes": 0.0, "builders.eval_points": 0.0}
        self.seen = {g: {} for g in _PER_FIELD}
        self.distinct = dict.fromkeys(_PER_FIELD, 0)

    # -- patching -------------------------------------------------------

    def _wrap(self, fn, span, group):
        sid = self._name_id.setdefault(span, len(self.span_names))
        if sid == len(self.span_names):
            self.span_names.append(span)
            self.span_group.append(group)
        names, parents, starts, ends = (self.name, self.parent,
                                        self.start, self.end)
        jet_out = group in _JET_OUTPUT
        per_field = group in _PER_FIELD
        counts_points = group == "builders.eval"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if per_field:
                tracer._see(group, args[0].c[0])
            if counts_points:
                # points of outermost evals only, like builders.eval_calls
                if not tracer.eval_depth:
                    pts = args[1] if len(args) > 1 else kw["pts"]
                    tracer.counters["builders.eval_points"] += len(pts)
                tracer.eval_depth += 1
            parent = tracer.current
            idx = len(names)
            names.append(sid)
            parents.append(parent)
            starts.append(perf_counter())
            ends.append(0.0)
            tracer.current = idx
            try:
                out = fn(*args, **kw)
            finally:
                ends[idx] = perf_counter()
                tracer.current = parent
                if counts_points:
                    tracer.eval_depth -= 1
            if jet_out:
                tracer.counters["jets.out_bytes"] += sum(
                    a.nbytes for a in out.c)
            return out

        return wrapper

    def _see(self, group, arr):
        seen = self.seen[group]
        ref = seen.get(id(arr))
        if ref is None or ref() is not arr:
            seen[id(arr)] = weakref.ref(arr)
            self.distinct[group] += 1

    def install(self):
        """Wrap every target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, attr, group in TARGETS:
            owner, name = _resolve(module, attr)
            orig = owner.__dict__[name]
            span = f"{module}.{attr}"
            wrapped = self._wrap(orig, span, group)
            wrappers[id(orig)] = (orig, wrapped)
            self._patch(owner, name, wrapped)
            if attr == "Jet.__mul__":
                self._patch(owner, "__rmul__", wrapped)
        # names other cprojlab modules imported with ``from .x import f``
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("cprojlab") or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, key, hit[1])

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches = []

    # -- roll-up ----------------------------------------------------------

    def rollup(self):
        """Fold the recorded spans into totals, then forget them.

        Returns {"calls": {group: n}, "time": {group: s},
        "self": {row: s}, "incl": {row: s}, "counters": {...},
        "distinct": {group: n}}.
        """
        n = len(self.name)
        groups = sorted(set(self.span_group))
        gbit = {g: 1 << i for i, g in enumerate(groups)}
        sbit = [gbit[g] for g in self.span_group]
        mask = [0] * n
        child = [0.0] * n
        calls = dict.fromkeys(groups, 0)
        gtime = dict.fromkeys(groups, 0.0)
        self_t = {}
        incl_t = {}
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        for i in range(n):
            sid, p = names[i], parents[i]
            dur = ends[i] - starts[i]
            outer = mask[p] if p >= 0 else 0
            bit = sbit[sid]
            mask[i] = outer | bit
            if p >= 0:
                child[p] += dur
            if not outer & bit:
                g = self.span_group[sid]
                calls[g] += 1
                gtime[g] += dur
        # a row of the self-time table is "span < caller": the caller is
        # the nearest enclosing span of another module, so L0 time shows
        # which L1-L3 function it was spent for
        module = [s.split(".", 1)[0] for s in self.span_names]
        caller = [-1] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                caller[i] = (caller[p] if module[names[p]] == module[names[i]]
                             else names[p])
            span = self.span_names[names[i]]
            if caller[i] >= 0:
                span = f"{span} < {self.span_names[caller[i]]}"
            dur = ends[i] - starts[i]
            self_t[span] = self_t.get(span, 0.0) + dur - child[i]
            incl_t[span] = incl_t.get(span, 0.0) + dur
        out = {"calls": calls, "time": gtime, "self": self_t,
               "incl": incl_t, "counters": dict(self.counters),
               "distinct": dict(self.distinct), "spans": n}
        self._clear_spans()
        return out

    def _clear_spans(self):
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.current = -1
        for k in self.counters:
            self.counters[k] = 0.0
        for g in self.distinct:
            self.distinct[g] = 0
            self.seen[g].clear()


def merge(acc, roll):
    """Add one roll-up into an accumulator of the same shape."""
    for key in ("calls", "time", "self", "incl", "counters", "distinct"):
        dst = acc.setdefault(key, {})
        for k, v in roll.get(key, {}).items():
            dst[k] = dst.get(k, 0) + v
    acc["spans"] = acc.get("spans", 0) + roll.get("spans", 0)
    return acc


def layer_values(passes, setup, kernels, process, overhead):
    """Per-layer metric values from summed pass roll-ups.

    ``passes`` is the merged roll-up of ``n`` traced passes (a dict with an
    extra ``"n"``); per-pass values are the totals divided by ``n``.
    ``setup`` is the roll-up of the traced set-up, ``kernels`` the
    fixed-input L0 timings in ms and ``process`` the L4 timings.
    """
    n = max(passes.get("n", 1), 1)
    out = {}
    for name, (unit, (kind, key)) in LAYER_METRICS.items():
        if kind == "calls":
            val = passes.get("calls", {}).get(key, 0) / n
        elif kind == "time":
            val = passes.get("time", {}).get(key, 0.0) / n
        elif kind == "counter":
            val = passes.get("counters", {}).get(key, 0.0) / n
            if key == "jets.out_bytes":
                val /= 1e6
        elif kind == "per_field":
            calls = passes.get("calls", {}).get(key, 0)
            distinct = passes.get("distinct", {}).get(key, 0)
            val = calls / distinct if distinct else 0.0
        elif kind == "setup_time":
            val = setup.get("time", {}).get(key, 0.0)
        elif kind == "kernel":
            val = kernels[name]
        elif kind == "process":
            val = process[key]
        else:
            val = overhead
        out[name] = {"value": val, "unit": unit}
    return out


def top_self(roll, n=12):
    """The n span names with the largest self time per pass, with their
    inclusive time."""
    per = max(roll.get("n", 1), 1)
    rows = sorted(roll.get("self", {}).items(), key=lambda kv: -kv[1])[:n]
    return [{"span": k, "self_s": v / per, "incl_s": roll["incl"][k] / per}
            for k, v in rows]
