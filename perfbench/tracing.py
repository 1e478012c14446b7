"""Span tracing of awarecheck's layers from outside the package.

Tracer.install() replaces public functions with wrappers at every module
attribute through which they are called (cli calls load_model through
awarecheck.cli.load_model, the checker calls the kernel through
awarecheck.checker.close_profiles, and so on) and uninstall() puts the
originals back.  Each call records a span (name, start, end, parent span,
operation id) in memory; nothing under src/ changes.
"""

import contextlib
import json
import time

from awarecheck import checker, cli, model, proofs, syntax

_MODULES = (syntax, model, checker, proofs, cli)

# (home module, function, per-layer metric that collects its self time)
WRAPPED = (
    (checker, "close_profiles", "kernel.closure_s"),
    (checker, "evaluate", "checker.self_s"),
    (checker, "satisfying_worlds", "checker.self_s"),
    (checker, "weak_counterexample", "checker.self_s"),
    (checker, "forall_witness", "checker.self_s"),
    (model, "generate_random", "model.generate_s"),
    (model, "enumerate_models", "model.enumerate_s"),
    (model, "load_model", "model.load_s"),
    (syntax, "parse", "syntax.parse_s"),
    (cli, "main", "cli.self_s"),
    (proofs, "schema_instances", "proofs.instances_s"),
    (proofs, "soundness_sweep", "proofs.self_s"),
)


def _span_name(metric, attr):
    return f"{metric.split('.')[0]}.{attr}"


COUNTS = ("kernel.closure_calls", "kernel.profiles_total", "checker.calls",
          "proofs.checks")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.profiles = 0
        self.op = 0
        self._stack = []
        self._active = False
        self._patched = []

    def begin_op(self):
        """Starts the next benchmark operation; later spans carry its id."""
        self.op += 1

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) are not
        recorded."""
        was, self._active = self._active, False
        try:
            yield
        finally:
            self._active = was

    def _span(self, name, fn, args, kwargs):
        if not self._active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        if name == "model.enumerate_models":
            def wrapper(*args, **kwargs):
                return self._traced_iter(name, fn(*args, **kwargs))
        elif name == "kernel.close_profiles":
            def wrapper(*args, **kwargs):
                records, layers = self._span(name, fn, args, kwargs)
                if self._active:
                    self.profiles += len(records)
                return records, layers
        else:
            def wrapper(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
        return wrapper

    def _traced_iter(self, name, it):
        # one span per item, since a generator runs only when pulled
        while True:
            try:
                item = self._span(name, next, (it,), {})
            except StopIteration:
                return
            yield item

    def install(self):
        for home, attr, metric in WRAPPED:
            fn = getattr(home, attr)
            wrapper = self._wrap(_span_name(metric, attr), fn)
            for mod in _MODULES:
                if vars(mod).get(attr) is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))
        self._active = True

    def uninstall(self):
        self._active = False
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []

    def layer_metrics(self):
        """{metric: (value, unit)}: self time per layer, in seconds, and the
        counts."""
        metric_of = {_span_name(metric, attr): metric
                     for _, attr, metric in WRAPPED}
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out = {metric: 0.0 for _, _, metric in WRAPPED}
        out.update((name, 0) for name in COUNTS)
        for i, (name, start, end, parent, _) in enumerate(spans):
            metric = metric_of[name]
            out[metric] += end - start - child[i]
            parent_name = spans[parent][0] if parent is not None else ""
            if name.startswith("kernel."):
                out["kernel.closure_calls"] += 1
            elif name.startswith("checker.") and \
                    not parent_name.startswith("checker."):
                out["checker.calls"] += 1
                if parent_name == "proofs.soundness_sweep":
                    out["proofs.checks"] += 1
        out["kernel.profiles_total"] = self.profiles
        return {name: (value, "count" if name in COUNTS else "s")
                for name, value in out.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
