"""Layer spans for the traced benchmark run.

The tracer swaps listed public functions of lastfall for timing wrappers,
at every module's binding of the name (``lastfall.cli.last_fall_degree`` and
``lastfall.falldeg.last_fall_degree`` are the same function bound twice) and
on the class for methods.  Each wrapper records a span: name, layer, start,
end and parent.  A call into the layer that is already open records no
span of its own, so recursion inside ``univar`` or ``zk_points`` under
``f1_points`` costs one span, not hundreds; its counters still run.  Field
construction is reported whole: nothing records a span inside ``gf``, so the
polynomial arithmetic that builds the tables counts as ``gf`` time.  Spans
stay in memory; ``summary`` reduces them to per-layer self times, where a
span's self time is its duration minus that of its child spans.
"""

import contextlib
import inspect
import json
import sys
import time
from collections import Counter

# (module, attribute path, layer).  The public functions of ``univar`` are
# added by ``_targets``, except the one-line helpers ``trim`` and ``degree``:
# ``linsys`` calls ``trim`` more than a million times per linear-campaigns
# round, so a span per call would cost more than the work it times.
TARGETS = (
    ("lastfall.gf", "make_field", "gf"),
    ("lastfall.poly", "PolySystem.from_json_str", "poly.from_json"),
    ("lastfall.poly", "MultiPoly.eval", "poly.eval"),
    ("lastfall.poly", "MultiPoly.substitute", "poly.substitute"),
    ("lastfall.linalg", "rref", "linalg.rref"),
    ("lastfall.linalg", "kernel_basis", "linalg.kernel"),
    ("lastfall.falldeg", "last_fall_degree", "falldeg.span"),
    ("lastfall.falldeg", "span_closure", "falldeg.span"),
    ("lastfall.falldeg", "PointsOracle.__init__", "falldeg.points_oracle"),
    ("lastfall.falldeg", "PointsOracle.dim_leq", "falldeg.points_oracle"),
    ("lastfall.falldeg", "PointsOracle.max_gb_degree", "falldeg.points_oracle"),
    ("lastfall.falldeg", "groebner_toy", "falldeg.groebner"),
    ("lastfall.falldeg", "GroebnerOracle.dim_leq", "falldeg.groebner"),
    ("lastfall.falldeg", "GroebnerOracle.max_gb_degree", "falldeg.groebner"),
    ("lastfall.descent", "make_descent_context", "descent.build"),
    ("lastfall.descent", "build_F1", "descent.build"),
    ("lastfall.descent", "build_Fprime1", "descent.build"),
    ("lastfall.descent", "zk_points", "descent.points"),
    ("lastfall.descent", "f1_points", "descent.points"),
    ("lastfall.descent", "fprime1_points", "descent.points"),
    ("lastfall.linsys", "reducibility_check", "linsys.reducibility"),
    ("lastfall.linsys", "symbolic_gcd", "linsys.symbolic_gcd"),
    ("lastfall.linsys", "solve_structured", "linsys.solve_structured"),
    ("lastfall.linsys", "brute_force_solve", "linsys.brute_force"),
    ("lastfall.linsys", "enumerate_solutions", "linsys.enumerate"),
    ("lastfall.linsys", "subspace_from_fW", "linsys.subspace"),
    ("lastfall.cli", "verify_thm_1_1", "cli"),
    ("lastfall.cli", "verify_thm_2_6", "cli"),
    ("lastfall.cli", "verify_solver", "cli"),
    ("lastfall.cli", "verify_example", "cli"),
    ("lastfall.cli", "main", "cli"),
)

# per-layer metric (self seconds) -> the layers whose self time it sums;
# ``bench`` is the benchmark's own root span around each timed call
SELF_TIME_METRICS = {
    "gf.make_field_s": ("gf",),
    "poly.from_json_s": ("poly.from_json",),
    "poly.eval_s": ("poly.eval",),
    "poly.substitute_s": ("poly.substitute",),
    "univar.self_s": ("univar",),
    "linalg.rref_s": ("linalg.rref",),
    "linalg.kernel_s": ("linalg.kernel",),
    "falldeg.span_self_s": ("falldeg.span",),
    "falldeg.points_oracle_s": ("falldeg.points_oracle",),
    "falldeg.groebner_s": ("falldeg.groebner",),
    "descent.build_s": ("descent.build",),
    "descent.points_s": ("descent.points",),
    "linsys.reducibility_s": ("linsys.reducibility",),
    "linsys.symbolic_gcd_s": ("linsys.symbolic_gcd",),
    "linsys.solve_structured_s": ("linsys.solve_structured",),
    "linsys.brute_force_s": ("linsys.brute_force",),
    "linsys.enumerate_s": ("linsys.enumerate",),
    "linsys.subspace_s": ("linsys.subspace",),
    "cli.self_s": ("cli", "bench"),
}

UNIVAR_UNTRACED = ("trim", "degree")

# a layer whose spans contain no child spans
OPAQUE_LAYER = "gf"


def _targets():
    univar = sys.modules["lastfall.univar"]
    for name, fn in vars(univar).items():
        if (inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == univar.__name__
                and name not in UNIVAR_UNTRACED):
            yield ("lastfall.univar", name, "univar")
    yield from TARGETS


class Tracer:
    """Installs the wrappers on enter, restores every binding on exit."""

    def __init__(self):
        self.spans = []    # [name, layer, start, end, parent index or -1]
        self.stack = []    # indices of open spans
        self.calls = Counter()
        self.counts = Counter()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _hooks(self):
        counts = self.counts
        lfd_signature = inspect.signature(sys.modules["lastfall.falldeg"].last_fall_degree)

        def on_make_field(args, kwargs, field):
            counts["gf.max_order"] = max(counts["gf.max_order"], field.order)

        def on_last_fall_degree(args, kwargs, prof):
            counts["falldeg.profiles"] += 1
            counts["falldeg.levels"] += len(prof.rows)
            counts["falldeg.span_dim_sum"] += sum(r.dim_V for r in prof.rows)
            if lfd_signature.bind(*args, **kwargs).arguments.get("certify", True):
                counts["falldeg.certify_asked"] += 1
                counts["falldeg.certified"] += int(prof.certified)

        def on_span_closure(args, kwargs, span):
            counts["falldeg.levels"] += span.degree_cap + 1
            counts["falldeg.span_dim_sum"] += span.dim

        def on_groebner(args, kwargs, gb):
            counts["falldeg.gb_size"] += len(gb.gens)
            counts["falldeg.gb_max_degree"] = max(counts["falldeg.gb_max_degree"],
                                                  gb.max_degree())

        def on_zk_points(args, kwargs, points):
            ring = args[0].ring
            counts["descent.points_enumerated"] += ring.coeff_order ** ring.nvars

        def on_reducibility(args, kwargs, report):
            counts["linsys.reducible"] += int(report.reducible)

        return {
            "make_field": on_make_field,
            "last_fall_degree": on_last_fall_degree,
            "span_closure": on_span_closure,
            "groebner_toy": on_groebner,
            "zk_points": on_zk_points,
            "reducibility_check": on_reducibility,
        }

    def _wrap(self, fn, name, layer, hook):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                # outside the benchmark's timed calls (input making, checks)
                return fn(*args, **kwargs)
            calls[name] += 1
            if spans[stack[-1]][1] in (layer, OPAQUE_LAYER):
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, layer, clock(), 0.0, stack[-1]])
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][3] = clock()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, name):
        """The benchmark's own span around a timed call; wrappers record
        nothing outside such a span."""
        idx = len(self.spans)
        self.spans.append([name, "bench", time.perf_counter(), 0.0, -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][3] = time.perf_counter()

    # -- install / restore ---------------------------------------------------

    def __enter__(self):
        hooks = self._hooks()
        modules = [m for n, m in sys.modules.items()
                   if n == "lastfall" or n.startswith("lastfall.")]
        for modname, path, layer in _targets():
            owner = sys.modules[modname]
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(owner, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, path, layer, None))
                else:
                    wrapped = self._wrap(raw, path, layer, hooks.get(path))
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            fn = getattr(owner, path)
            wrapped = self._wrap(fn, path, layer, hooks.get(path))
            for mod in modules:
                if vars(mod).get(path) is fn:
                    self._undo.append((mod, path, fn))
                    setattr(mod, path, wrapped)
        return self

    def __exit__(self, *exc):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)
        return False

    # -- reduction -----------------------------------------------------------

    def wall_s(self):
        """Total duration of the root spans: the traced wall time."""
        return sum(s[3] - s[2] for s in self.spans if s[4] < 0)

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        per_layer = Counter()
        for idx, s in enumerate(self.spans):
            per_layer[s[1]] += (s[3] - s[2]) - child[idx]
        return per_layer

    def count_metrics(self):
        c, calls = self.counts, self.calls
        return {
            "gf.make_field_calls": calls["make_field"],
            "gf.max_order": c["gf.max_order"],
            "poly.eval_calls": calls["MultiPoly.eval"],
            "falldeg.profiles": c["falldeg.profiles"],
            "falldeg.levels": c["falldeg.levels"],
            "falldeg.span_dim_sum": c["falldeg.span_dim_sum"],
            "falldeg.gb_size": c["falldeg.gb_size"],
            "falldeg.gb_max_degree": c["falldeg.gb_max_degree"],
            "descent.points_enumerated": c["descent.points_enumerated"],
            "linsys.reducibility_calls": calls["reducibility_check"],
            "linsys.symbolic_gcd_calls": calls["symbolic_gcd"],
        }

    def ratio_metrics(self):
        c, calls = self.counts, self.calls
        asked = c["falldeg.certify_asked"]
        checked = calls["reducibility_check"]
        return {
            # 0 when the workload asks for no certified profile / no check
            "falldeg.certified_ratio": c["falldeg.certified"] / asked if asked else 0.0,
            "linsys.reducible_ratio": c["linsys.reducible"] / checked if checked else 0.0,
        }

    def summary(self):
        per_layer = self.self_times()
        out = {metric: sum(per_layer[layer] for layer in layers)
               for metric, layers in SELF_TIME_METRICS.items()}
        out.update(self.count_metrics())
        out.update(self.ratio_metrics())
        return out

    def dump(self, path):
        """Write the spans as JSON: one [name, layer, start, end, parent] each,
        times in seconds from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], round(s[2] - t0, 7), round(s[3] - t0, 7), s[4]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
