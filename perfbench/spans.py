"""Spans and counters around the public functions of hornfill.

The tracer replaces a function by a wrapper on every name a hornfill
module binds it to (modules import functions by name, so patching only
the defining module would miss calls such as ``kan.enumerate_maps`` or
``cli.classify``), and restores the originals on ``uninstall``.  Spans
are appended to an in-memory list; ``aggregate`` turns them into calls,
inclusive seconds and self seconds per span name when the run ends.
The three hottest functions are counted only: a span per call would
cost more than the work being measured.
"""

import functools
import importlib
import sys
import time

# (module, attribute path) of every spanned function.  A class name alone
# spans its constructor.
SPANNED = (
    ("cli", "main"),
    ("io", "load_path"),
    ("io", "sset_from_json"),
    ("io", "dumps"),
    ("cat", "nerve"),
    ("cat", "duskin_nerve"),
    ("cat", "fundamental_category"),
    ("cat", "homotopy_category"),
    ("sset", "LevelModel"),
    ("sset", "SimplicialSet.validate"),
    ("sset", "enumerate_maps"),
    ("kan", "classify"),
    ("kan", "horn_maps"),
    ("kan", "horn_fillers"),
    ("groupoid", "cech_nerve"),
    ("groupoid", "action_bar_object"),
    ("groupoid", "is_groupoid_object"),
    ("groupoid", "check_torsor"),
    ("groupoid", "torsor_comparison"),
    ("descent", "cech_cocycles"),
    ("descent", "cech_descent_skeleton"),
    ("descent", "cech_stack_report"),
    ("descent", "refinement_invariance"),
    ("descent", "truncation_agreement_cech"),
    ("descent", "descent_groupoid"),
    ("descent", "truncation_agreement_groupoids"),
)

# metric name -> (module, attribute path) of the counted-only functions
COUNTED = {
    "sset.restrict.calls": ("sset", "SimplicialSet.restrict"),
    "groupoid.restrict.calls": ("groupoid", "SimplicialObject.restrict"),
    "descent.cochain_action.calls": ("descent", "cochain_action"),
}


def _levels_size(model):
    return sum(len(level) for level in model.levels)


# span name -> (outcome counter, amount read from the span's result)
OUTCOME_OF = {
    "cat.nerve": ("cat.simplices_built", lambda res: _levels_size(res.model)),
    "cat.duskin_nerve": ("cat.simplices_built", lambda res: _levels_size(res.model)),
    "sset.enumerate_maps": ("sset.maps_returned", len),
    "kan.classify": (
        "kan.horn_maps_classified", lambda res: sum(v.horn_count for v in res.verdicts)
    ),
    "groupoid.is_groupoid_object": ("groupoid.partitions_checked", lambda res: res.checked),
    "groupoid.cech_nerve": ("groupoid.level_elements", _levels_size),
    "groupoid.action_bar_object": ("groupoid.level_elements", _levels_size),
    "groupoid.check_torsor": ("groupoid.torsors_accepted", lambda res: int(res.is_torsor)),
    "descent.cech_cocycles": ("descent.cocycles_returned", lambda res: len(res[0])),
    # json.dumps escapes to ASCII, so characters are bytes
    "io.dumps": ("io.bytes_out", len),
}
OUTCOMES = tuple(dict.fromkeys(metric for metric, _ in OUTCOME_OF.values()))


def span_names():
    return [f"{mod}.{path}" for mod, path in SPANNED]


def _group_cover_key(group, cover):
    return (
        tuple(group.elements),
        tuple(sorted(group.mul.items())),
        tuple(cover.e),
        tuple(cover.b),
        tuple(sorted(cover.pi.items())),
    )


class Tracer:
    """Installs span and counter wrappers; holds spans and counts in memory."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []
        self.counts = dict.fromkeys(list(COUNTED) + list(OUTCOMES), 0)
        self.cocycle_pairs = set()
        self._patches = []

    # -- installation ---------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package.__name__ or name.startswith(prefix))
        ]

    def _patch(self, module, path, make):
        owner = importlib.import_module(f"{self.package.__name__}.{module}")
        head, _, method = path.partition(".")
        target = getattr(owner, head)
        if method or isinstance(target, type):
            # a method, or a class whose constructor is spanned
            attr = method or "__init__"
            orig = target.__dict__[attr]
            self._patches.append((target, attr, orig))
            setattr(target, attr, make(orig))
            return
        wrapper = make(target)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._patches.append((mod, attr, target))
                    setattr(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path in SPANNED:
            name = f"{module}.{path}"
            self._patch(module, path, lambda fn, name=name: self._span(name, fn))
        for metric, (module, path) in COUNTED.items():
            self._patch(module, path, lambda fn, metric=metric: self._count(metric, fn))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- wrappers -------------------------------------------------------------

    def _count(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter
        outcome = OUTCOME_OF.get(name)
        pairs = self.cocycle_pairs if name == "descent.cech_cocycles" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if outcome is not None:
                metric, amount = outcome
                counts[metric] += amount(result)
            if pairs is not None:
                pairs.add(_group_cover_key(*args[:2]))
            return result

        return wrapper


def aggregate(spans):
    """calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only spans with no ancestor of the
    same name, so a recursive call is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
    return out


def layer_metrics(tracer, passes):
    """Per-pass layer metrics in the benchmark's naming."""
    agg = aggregate(tracer.spans)
    out = {}
    for name in span_names():
        a = agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (a["calls"] / passes, "count")
        out[f"{name}.s"] = (a["s"] / passes, "s")
        out[f"{name}.self_s"] = (a["self_s"] / passes, "s")
    for metric in list(COUNTED) + list(OUTCOMES):
        unit = "bytes" if metric == "io.bytes_out" else "count"
        out[metric] = (tracer.counts[metric] / passes, unit)
    lookups = tracer.counts["kan.horn_maps_classified"] + agg.get(
        "kan.horn_fillers", {"calls": 0}
    )["calls"]
    restricts = tracer.counts["sset.restrict.calls"]
    out["kan.lookups_per_restrict"] = (lookups / restricts if restricts else 0.0, "ratio")
    cocycle_calls = agg.get("descent.cech_cocycles", {"calls": 0})["calls"] / passes
    out["descent.cocycle_reuse"] = (
        len(tracer.cocycle_pairs) / cocycle_calls if cocycle_calls else 0.0, "ratio"
    )
    return out
