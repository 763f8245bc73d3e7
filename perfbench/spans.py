"""Thread-aware span recorder and the wrappers that feed it.

A span is one call into a fisherctl layer: name, start, end, parent span,
thread and run id (the index of the benchmark operation it belongs to).
Spans are kept in memory and written out when the benchmark ends.  Very
frequent leaf calls whose time is too small to matter are recorded as
counts only.

The wrappers sit around the calls into the layers from outside: every
module attribute of the ``fisherctl`` package that is bound to a wrapped
function is replaced, and restored by :meth:`Tracer.uninstall`.  Nothing
in the package itself changes.
"""

from __future__ import annotations

import functools
import gzip
import json
import resource
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  Every binding of the same function
# object anywhere in the package is wrapped, so ``from .dynamics import
# propagate`` in grape and cli is covered too.
SPANNED_FUNCTIONS = {
    ("models", "get_model"): "models.get_model",
    ("dynamics", "propagate"): "dynamics.propagate",
    ("dynamics", "build_liouvillian"): "dynamics.build_liouvillian",
    ("dynamics", "step_hamiltonians"): "dynamics.step_hamiltonians",
    ("dynamics", "measure"): "dynamics.measure",
    ("dynamics", "measure_derivs"): "dynamics.measure",
    ("fisher", "cfim"): "fisher.cfim",
    ("fisher", "qfim"): "fisher.qfim",
    ("fisher", "tr_inv"): "fisher.tr_inv",
    ("grape", "optimize"): "grape.optimize",
    ("cli", "cmd_sweep"): "cli.sweep",
    ("cli", "_sweep_point"): "cli.sweep.point",
    ("cli", "_write_sweep"): "cli.write",
}
COUNTED_FUNCTIONS = {
    ("operators", "validate_hermitian"): "operators.validate_hermitian",
    ("operators", "commutator_superop"): "operators.commutator_superop",
}
SPANNED_METHODS = {
    ("grape", "GradientContext", "__init__"): "grape.context",
    ("grape", "GradientContext", "cfim_gradient_grid"): "grape.gradient",
    ("grape", "GradientContext", "_ensure_backward"): "grape.backward",
}
ORACLE_PREFIX = "oracle_"


def process_cpu() -> float:
    """CPU seconds of this process and its reaped children.

    Process-level, so it still sees the work if a pool of threads becomes a
    pool of processes.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


class Tracer:
    """Collects spans and counts from any number of threads."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, run, tag)
        self.counts = Counter()
        self.run_id = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore = []

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def record(self, name, fn, args, kwargs, tag=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident(), self.run_id, tag))

    def count(self, name, amount=1):
        with self._lock:
            self.counts[(name, self.run_id)] += amount

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        if name == "dynamics.propagate":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                exact = kwargs.get("deriv_method", args[4] if len(args) > 4 else "exact")
                return self.record(name, fn, args, kwargs,
                                   tag="exact" if exact == "exact" else None)
        elif name == "cli.sweep":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cpu0 = process_cpu()
                wall0 = time.perf_counter()
                try:
                    return self.record(name, fn, args, kwargs)
                finally:
                    self.count("cli.sweep.cpu_s", process_cpu() - cpu0)
                    self.count("cli.sweep.wall_s", time.perf_counter() - wall0)
        elif name == "grape.optimize":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self.record(name, fn, args, kwargs)
                self.count("grape.iterations", result.iterations_used)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.record(name, fn, args, kwargs)
        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _expm_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            return self.record(f"dynamics.expm{a.shape[-1]}", fn, (a,) + args, kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fisherctl" or mod_name.startswith("fisherctl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        """Wrap every traced layer boundary; call once, before the timed work."""
        import importlib

        import scipy.linalg

        modules = {name: importlib.import_module(f"fisherctl.{name}")
                   for name in ("operators", "models", "dynamics", "fisher",
                                "grape", "oracles", "cli")}
        for (mod, attr), name in SPANNED_FUNCTIONS.items():
            original = getattr(modules[mod], attr)
            self._patch_everywhere(original, self._span_wrapper(name, original))
        for (mod, attr), name in COUNTED_FUNCTIONS.items():
            original = getattr(modules[mod], attr)
            self._patch_everywhere(original, self._count_wrapper(name, original))
        for (mod, cls_name, attr), name in SPANNED_METHODS.items():
            cls = getattr(modules[mod], cls_name)
            self._patch(cls, attr, self._span_wrapper(name, cls.__dict__[attr]))
        oracles = modules["oracles"]
        for attr, value in list(vars(oracles).items()):
            if attr.startswith(ORACLE_PREFIX) and callable(value):
                self._patch(oracles, attr, self._span_wrapper("oracles", value))
        # The step and derivative exponentials are scipy kernels, looked up as
        # ``scipy.linalg.expm`` at call time; they are keyed by matrix size.
        self._patch(scipy.linalg, "expm", self._expm_wrapper(scipy.linalg.expm))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------------

    def dump(self, path):
        """Write every span and count as gzipped JSON."""
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "thread", "run", "tag"],
            "spans": self.spans,
            "counts": [[name, run, n] for (name, run), n in sorted(
                self.counts.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def load(path):
    """Read a :meth:`Tracer.dump` file back as ``(spans, {count name: value})``.

    Counts of every run id are added together.
    """
    with gzip.open(path, "rt") as fh:
        payload = json.load(fh)
    counts: dict = {}
    for name, _run, n in payload["counts"]:
        counts[name] = counts.get(name, 0) + n
    return [tuple(s) for s in payload["spans"]], counts


# -- analysis --------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per-name totals from a span list.

    Returns ``{name: {"calls", "s", "self_s", "exact_calls", "exact_s"}}``,
    where the ``exact_`` figures cover the spans tagged "exact".  ``s`` sums
    the spans of a name that are not nested inside a span of the same name,
    so recursion is not counted twice.  ``self_s`` is each span's duration
    minus the part of it that its child spans cover.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                               "exact_calls": 0, "exact_s": 0.0})
    for span_id, name, start, end, parent, _thread, _run, tag in spans:
        entry = out[name]
        entry["calls"] += 1
        duration = end - start
        entry["self_s"] += duration - _covered(children.get(span_id, ()), start, end)
        if tag == "exact":
            entry["exact_calls"] += 1
        nested = False
        p = parent
        while p is not None:
            anc = by_id[p]
            if anc[1] == name:
                nested = True
                break
            p = anc[4]
        if not nested:
            entry["s"] += duration
            if tag == "exact":
                entry["exact_s"] += duration
    return dict(out)
