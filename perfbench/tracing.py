"""Spans around the calls into authdesigns, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules,
wherever a module of the package holds a reference to it, with a wrapper
that records one span: name, start, end, parent span, and the job and pass
it belongs to.  Spans stay in memory and are written out when the run ends.
Nothing inside the package is edited; a later change that moves spans into
the program can keep the span names used here.
"""

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import time

TRACED_MODULES = ("cli", "fileio", "catalog", "difference_families",
                  "designs", "balancing", "analysis", "apa")

# span names that differ from "<module>.<function>"
RENAMED = {
    "analysis.perfect_secrecy_check": "analysis.secrecy",
    "analysis.voracle_offline_value": "analysis.offline",
    "fileio.atomic_write_json": "fileio.write",
    "cli.cmd_build": "cli.build",
    "cli.cmd_verify": "cli.verify",
}


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def span_name(qualified, args, kwargs):
    """The span name of one call; attack orders and CLI actions get their
    own names so the per-layer metrics can split on them."""
    if qualified == "analysis.deception_probability":
        return f"analysis.deception.o{_argument(args, kwargs, 1, 'i')}"
    if qualified == "analysis.voracle_online_value":
        return f"analysis.online.o{_argument(args, kwargs, 1, 'i')}"
    if qualified == "cli.cmd_attack":
        model = args[0].model
        return "cli.attack_classic" if model == "classic" else "cli.attack_oracle"
    if qualified == "cli.cmd_catalog":
        return f"cli.{args[0].action}"
    return RENAMED.get(qualified, qualified)


def span_counts(qualified, args, kwargs):
    """Work counts attached to a span, taken from the call's arguments."""
    if qualified == "analysis.deception_probability":
        system, i = args[0], _argument(args, kwargs, 1, "i")
        return {"subsets": system.b * math.comb(system.k, i + 1)}
    if qualified == "balancing.edge_color":
        return {"edges": len(args[0].edges)}
    if qualified == "fileio.atomic_write_json":
        return {"bytes": os.path.getsize(_argument(args, kwargs, 1, "path"))}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None
        self.pass_no = None
        # job -> factor that scales its raw times to the reference speed
        self.scales = {}

    def record(self, name, start, end, parent=None):
        span = {"id": len(self.spans), "name": name, "start": start,
                "end": end, "parent": parent, "job": self.job,
                "pass": self.pass_no}
        self.spans.append(span)
        return span["id"]

    def _wrap(self, qualified, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name(qualified, args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            slot = tracer.record(name, time.perf_counter(), None, parent=parent)
            tracer._stack.append(slot)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.spans[slot]["end"] = time.perf_counter()
                tracer._stack.pop()
                counts = span_counts(qualified, args, kwargs)
                if counts:
                    tracer.spans[slot].update(counts)

        return traced

    def install(self):
        """Wrap the public functions of the traced modules, then point every
        loaded ``authdesigns`` module at the wrappers (``from x import f``
        copies the reference, so patching the defining module alone would
        miss those calls)."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"authdesigns.{short}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "authdesigns"
                                      or module_name.startswith("authdesigns.")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def adopt(self, spans, job, pass_no):
        """Merge spans written by a traced child process."""
        offset = len(self.spans)
        for span in spans:
            span = dict(span)
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            span["job"], span["pass"] = job, pass_no
            self.spans.append(span)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "scales": self.scales}, fh)


def _matches(name, prefix):
    return name == prefix or name.startswith(prefix + ".")


def layer_metrics(spans, passes, time_metrics, count_metrics, scales=None):
    """Per-layer values: for each metric, the median over ``passes`` of its
    per-pass total.  A time metric ``x_s`` sums the durations of spans named
    ``x`` or ``x.*``, outermost only, each scaled by its job's factor in
    ``scales`` (1 when absent); a count metric sums one span field."""
    scales = scales or {}
    by_id = {span["id"]: span for span in spans}
    totals = {name: {p: 0.0 for p in passes} for name in time_metrics}
    counts = {name: {p: 0 for p in passes} for name in count_metrics}
    for span in spans:
        if span["pass"] is None:
            continue
        for metric in time_metrics:
            prefix = metric[:-2]
            if not _matches(span["name"], prefix):
                continue
            parent = span["parent"]
            nested = False
            while parent is not None:
                if _matches(by_id[parent]["name"], prefix):
                    nested = True
                    break
                parent = by_id[parent]["parent"]
            if not nested:
                totals[metric][span["pass"]] += (
                    (span["end"] - span["start"]) * scales.get(span["job"], 1.0))
        for metric, field in count_metrics.items():
            counts[metric][span["pass"]] += span.get(field, 0)
    values = {metric: statistics.median(per_pass.values())
              for metric, per_pass in totals.items()}
    values.update({metric: statistics.median_low(per_pass.values())
                   for metric, per_pass in counts.items()})
    return values
