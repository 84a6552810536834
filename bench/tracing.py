"""Spans around the public functions of epiage's layers.

``Tracer.install`` replaces each traced function by a wrapper at every
place the program looks it up: the attribute of every loaded epiage
module (and of the package) that holds the original function object,
whatever name it is imported under.  A span records a name, a start, an
end and its parent; spans are kept in memory and written out at the end.
Only calls made inside a root span (one timed operation) are recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

#: layer module -> traced functions; ``presets.run_config`` is the
#: end-to-end entry point and its own time counts as unattributed
TRACED = {
    "epiage.demography": ("analysis_kernel", "refine_kernel", "stationary_mixing"),
    "epiage.thresholds": ("classify", "r0", "rc", "dominant_growth_rate"),
    "epiage.steady": ("find_fixed_points",),
    "epiage._sweep": ("exp_sweep",),
    "epiage.transport": ("simulate",),
    "epiage.bifurcation": ("sweep", "stability_probe"),
    "epiage.io": (
        "write_report", "write_initial", "write_trajectory",
        "write_b_series", "write_steady_states", "write_diagram",
    ),
    "epiage.presets": ("run_config",),
}
LAYERS = ("demography", "thresholds", "steady", "sweep", "transport", "bifurcation", "io")


def _layer(module_name):
    return module_name.rsplit(".", 1)[1].lstrip("_")


def _work(name, args, kwargs):
    """Units of work a call does, for the per-unit metrics."""
    def arg(position, keyword):
        return kwargs[keyword] if keyword in kwargs else args[position]

    if name == "sweep.exp_sweep":
        return arg(1, "psi").size  # batch rows x nodes
    if name == "transport.simulate":
        grid = arg(2, "grid")
        return (grid.n_age + 1) * grid.n_time  # nodes x steps
    if name == "io.write_trajectory":
        return arg(1, "field").s.size  # rows
    return 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, work]
        self._stack = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1], _work(name, args, kwargs)]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        wrappers = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{_layer(module_name)}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "epiage" and not module_name.startswith("epiage."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    @contextmanager
    def root(self, name):
        """One timed section: the root of the spans recorded inside it."""
        span = [name, 0.0, 0.0, None, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "work")
        path.write_text(json.dumps([dict(zip(keys, span)) for span in self.spans]))

    def summary(self, rounds):
        """Per-layer metrics per round; checks that self times add up."""
        child = [0.0] * len(self.spans)
        ancestors = []
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                child[parent] += span[2] - span[1]
            chain = set()
            while parent is not None:
                chain.add(self.spans[parent][0])
                parent = self.spans[parent][3]
            ancestors.append(chain)

        total = {}
        self_time = {}
        work = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        root_time = unattributed = 0.0
        sweep_under = {"steady": [0, 0], "thresholds": [0, 0]}
        for k, (name, start, end, parent, units) in enumerate(self.spans):
            duration = end - start
            own = duration - child[k]
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + own
            work[name] = work.get(name, 0) + units
            layer = name.split(".")[0]
            if parent is None:
                root_time += duration
            if layer in layer_self:
                layer_self[layer] += own
            else:
                unattributed += own
            if name == "sweep.exp_sweep":
                for owner, tally in sweep_under.items():
                    if any(a.startswith(owner + ".") for a in ancestors[k]):
                        tally[0] += 1
                        tally[1] += units
        accounted = sum(layer_self.values()) + unattributed
        if abs(accounted - root_time) > 1e-9 * max(root_time, 1.0):
            raise RuntimeError(f"self times sum to {accounted!r}, traced time is {root_time!r}")

        def per_unit(name, scale):
            return total.get(name, 0.0) / work[name] * scale if work.get(name) else 0.0

        writes = [n for n in total if n.startswith("io.") and n != "io.write_trajectory"]
        per_round = {
            "io.write_trajectory.s": (total.get("io.write_trajectory", 0.0), "s"),
            "io.write_other.s": (sum(total[n] for n in writes), "s"),
            "transport.simulate.s": (total.get("transport.simulate", 0.0), "s"),
            "bifurcation.stability_probe.s": (total.get("bifurcation.stability_probe", 0.0), "s"),
            "steady.find_fixed_points.s": (total.get("steady.find_fixed_points", 0.0), "s"),
            "steady.find_fixed_points.self_s": (self_time.get("steady.find_fixed_points", 0.0), "s"),
            "steady.exp_sweep_calls": (sweep_under["steady"][0], "count"),
            "steady.exp_sweep_node_rows": (sweep_under["steady"][1], "count"),
            "thresholds.classify.s": (total.get("thresholds.classify", 0.0), "s"),
            "thresholds.dominant_growth_rate.s": (total.get("thresholds.dominant_growth_rate", 0.0), "s"),
            "thresholds.exp_sweep_calls": (sweep_under["thresholds"][0], "count"),
            "demography.analysis_kernel.s": (total.get("demography.analysis_kernel", 0.0), "s"),
        }
        per_round.update({f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS})
        metrics = {k: (v / rounds, unit) for k, (v, unit) in per_round.items()}
        metrics.update({
            "io.write_trajectory.us_per_row": (per_unit("io.write_trajectory", 1e6), "us"),
            "transport.simulate.ns_per_node_step": (per_unit("transport.simulate", 1e9), "ns"),
            "sweep.exp_sweep.ns_per_node_row": (per_unit("sweep.exp_sweep", 1e9), "ns"),
            "trace.unattributed_share": (unattributed / root_time if root_time else 0.0, "ratio"),
        })
        return metrics
