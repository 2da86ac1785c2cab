"""Span tracing of misdyn from outside the library.

install() wraps the public functions of each misdyn module in every
module namespace that binds them (``from .rational import vec_mat``
copies the binding into the importing module), plus the methods
ParseTree.append, ParseTree.dump and Digraph.__init__ on their classes.
Each wrapped call records one span (name, binding module, start, end,
parent span) in memory; remove() restores the originals. Self time is
a span's duration minus the durations of its direct child spans, which
in one thread are nested inside it.
"""

import gzip
import json
import time

# Home module -> public functions traced there.
TRACED = {
    "digraph": ("product", "cumulant", "transitive_closure", "transitive_front",
                "reverse", "scc_partition", "read_sequence_text", "write_sequence_text"),
    "parsing": ("parse", "decorate_topological", "backward_parse"),
    "system": ("locate_cell", "step", "orbit", "coefficient_of_ergodicity",
               "is_primitive", "stationary_distribution", "perron_decomposition",
               "kronecker_variance_lift", "read_mis_config", "write_mis_config",
               "sample_simplex"),
    "rational": ("vec_dot", "vec_mat", "mat_mul", "rref", "solve_unique",
                 "find_dependent_row"),
    "analysis": ("block_product", "detect_period", "estimate_eta",
                 "property_u_certificate", "delta_sweep"),
    "constructions": ("build_clock", "build_baker"),
}

# (module, class, method) -> span name
METHODS = {
    ("parsing", "ParseTree", "append"): "parsing.append",
    ("parsing", "ParseTree", "dump"): "parsing.dump",
    ("digraph", "Digraph", "__init__"): "digraph.Digraph_init",
}

VERDICT_KEYS = {
    "exact-periodic": "exact",
    "asymptotically-periodic": "asymptotic",
    "unresolved": "unresolved",
}


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names = []
        self.sites = []
        self._name_ids = {}
        self._site_ids = {}
        self.spans = []  # (name id, site id, start, end, parent index or -1)
        self.stack = [-1]
        self.counters = {}
        self._restore = []

    @staticmethod
    def _intern(table, ids, value):
        if value not in ids:
            ids[value] = len(table)
            table.append(value)
        return ids[value]

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def _wrap(self, fn, name, site, before=None, after=None):
        name_id = self._intern(self.names, self._name_ids, name)
        site_id = self._intern(self.sites, self._site_ids, site)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, site_id, start, end, parent)
            if after is not None:
                after(result, token)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, lib):
        """Patch every binding of the traced functions in lib's modules."""
        originals = {}
        for home, names in TRACED.items():
            module = getattr(lib, home)
            for name in names:
                originals[id(getattr(module, name))] = f"{home}.{name}"
        hooks = {
            "system.orbit": self._after_orbit,
            "analysis.delta_sweep": self._after_sweep,
            "analysis.detect_period": self._after_detect,
        }
        for site in TRACED:
            module = getattr(lib, site)
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                self._restore.append((module, attr, value))
                setattr(module, attr, self._wrap(value, name, site, after=hooks.get(name)))
        for (home, cls_name, method), name in METHODS.items():
            cls = getattr(getattr(lib, home), cls_name)
            fn = cls.__dict__[method]
            self._restore.append((cls, method, fn))
            if name == "parsing.append":
                wrapped = self._wrap(fn, name, home, before=lambda args: args[0].root,
                                     after=self._after_append)
            else:
                wrapped = self._wrap(fn, name, home)
            setattr(cls, method, wrapped)

    def remove(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # Result hooks: counts read off return values, outside the spans.

    def _after_append(self, tree, root_before):
        self.maximum("parsing.tree.depth_max", tree.depth())
        if root_before is not None and tree.root is root_before:
            self.count("parsing.append.stuck")

    def _after_orbit(self, trace, _):
        self.count("system.orbit.steps", len(trace.itinerary))
        self.maximum("system.state_bits.max", trace.states[-1].bit_size)

    def _after_sweep(self, report, _):
        for entry in report.entries:
            if entry.error is not None:
                self.count("analysis.verdicts.error")
            else:
                status = entry.verdict.status
                self.count("analysis.verdicts." + VERDICT_KEYS.get(status, status))

    def _after_detect(self, verdict, _):
        if verdict.status == "asymptotically-periodic":
            self.count("analysis.detect_period.asymptotic")

    def write(self, path):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "sites": self.sites}) + "\n")
            for idx, (name, site, start, end, parent) in enumerate(self.spans):
                fh.write(f"[{idx},{name},{site},{start:.9f},{end:.9f},{parent}]\n")


def layer_metrics(rec, overhead_frac, per_layer):
    """Values of the per_layer metrics (BENCHMARK.json entries) from one
    traced run."""
    spans = rec.spans
    names = rec.names
    name_of = [names[s[0]] for s in spans]
    child_time = [0.0] * len(spans)
    in_detect = [False] * len(spans)
    calls, self_s, inclusive = {}, {}, {}
    for idx, (_, _, start, end, parent) in enumerate(spans):
        name = name_of[idx]
        if parent >= 0:
            child_time[parent] += end - start
            in_detect[idx] = in_detect[parent]
        if name == "analysis.detect_period":
            in_detect[idx] = True
        calls[name] = calls.get(name, 0) + 1
    for idx, (_, _, start, end, parent) in enumerate(spans):
        name = name_of[idx]
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[idx]
        # Inclusive time counts only the outermost span of a name.
        outer = parent
        while outer >= 0 and name_of[outer] != name:
            outer = spans[outer][4]
        if outer < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)

    def from_site(name, site, parent_name=None, detect_only=False):
        total = 0
        for idx, (_, site_id, _, _, parent) in enumerate(spans):
            if name_of[idx] != name or rec.sites[site_id] != site:
                continue
            if detect_only and not in_detect[idx]:
                continue
            if parent_name is not None and (parent < 0 or name_of[parent] != parent_name):
                continue
            total += 1
        return total

    counters = rec.counters
    appends = calls.get("parsing.append", 0)
    tau_evals = from_site("system.coefficient_of_ergodicity", "analysis", detect_only=True)
    derived = {
        "parsing.append.stuck_frac":
            counters.get("parsing.append.stuck", 0) / appends if appends else 0.0,
        "parsing.append.products_per_append":
            from_site("digraph.product", "parsing", "parsing.append") / appends
            if appends else 0.0,
        "analysis.detect_period.steps":
            from_site("system.locate_cell", "analysis", "analysis.detect_period"),
        "analysis.scan.block_products": from_site("rational.mat_mul", "analysis",
                                                  detect_only=True),
        "analysis.scan.tau_evals": tau_evals,
        "analysis.scan.hit_frac":
            counters.get("analysis.detect_period.asymptotic", 0) / tau_evals
            if tau_evals else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for entry in per_layer:
        metric, unit = entry["name"], entry["unit"]
        span_name, kind = metric.rsplit(".", 1)
        if metric in derived:
            value = derived[metric]
        elif kind == "calls":
            value = calls.get(span_name, 0)
        elif kind == "self_s":
            value = self_s.get(span_name, 0.0)
        elif kind == "s":
            value = inclusive.get(span_name, 0.0)
        else:
            value = counters.get(metric, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
