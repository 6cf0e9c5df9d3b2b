"""In-memory span tracer that instruments shiftdetect from outside.

A function is wrapped wherever it is looked up: every module of the
package that holds a reference to it (``harness`` imports ``reduce``,
``dispatch_test`` and ``fit_pca`` by name, ``digits`` imports
``affine_transform_image``) gets the wrapper, and the original is put back
when the tracer exits. Nothing under ``src/`` is edited.

A span records (name, start, end, parent, thread). A span opened on a
thread with no open span of its own (a grid cell in the thread pool) takes
the innermost open span of the main thread as its parent.

Two times are derived per span name:

* busy time: the summed duration of the outermost spans of that name
  (a recursive call is not counted twice); with a thread pool this is
  summed over threads;
* self time: a span's share of the wall-clock instants at which it is
  open and none of its children are. Where k spans qualify at the same
  instant (two pool threads), each gets 1/k, so the self times of a unit
  add up to its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

def patch_everywhere(original, replacement) -> list:
    """Replace every shiftdetect module attribute bound to ``original``."""
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "shiftdetect" or name.startswith("shiftdetect.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                patched.append((module, key, original))
    if not patched:
        raise RuntimeError(f"{original!r} is not referenced by any shiftdetect module")
    return patched


def restore(patched: list) -> None:
    for module, key, original in reversed(patched):
        setattr(module, key, original)


def _mmd_counts(args: dict) -> dict:
    x, y = args["x"], args["y"]
    n_total = len(x) + len(y)
    features = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
    perms = int(args["n_perms"])
    return {"stattest.mmd.calls": 1, "stattest.mmd.perms": perms,
            "stattest.mmd.madds_computed": perms * n_total ** 2 + n_total ** 2 * features,
            "stattest.mmd.kernel_bytes_computed": 8 * n_total ** 2}


def _instrumented():
    """(function, span name or None, counter) for every traced boundary.

    Span names are ``<layer>.<function>``. The counter is a dict of fixed
    count increments per call, or a function of the bound call arguments
    returning one.
    """
    from shiftdetect import data, digits, dimred, harness, nets, shifts, stattest

    return [
        (digits.make_digits, "digits.make_digits",
         lambda a: {"digits.images": int(a["n"])}),
        (shifts.affine_transform_image, None, {"shifts.affine_images": 1}),
        (data.random_split, "data.random_split", None),
        (shifts.apply_shift, "shifts.apply_shift", None),
        (dimred.fit_pca, "dimred.fit_pca", None),
        (dimred.build_srp, "dimred.build_srp", None),
        (dimred.reduce, "dimred.reduce", {"dimred.reduce.calls": 1}),
        (nets.train_autoencoder, "nets.train_autoencoder", None),
        (nets.train_label_classifier, "nets.train_label_classifier", None),
        (nets.train_domain_classifier, "nets.train_domain_classifier", None),
        (nets.loss_and_gradients, "nets.loss_and_gradients",
         {"nets.sgd_steps": 1}),
        (stattest.dispatch_test, "stattest.dispatch_test", None),
        (stattest.ks_pvalues_by_column, "stattest.ks_pvalues_by_column",
         lambda a: {"stattest.ks.columns": int(np.shape(a["source"])[-1])}),
        (stattest.mmd_permutation_test, "stattest.mmd_permutation_test", _mmd_counts),
        (stattest.chi2_independence, "stattest.chi2_independence", None),
        (stattest.binomial_two_sided, "stattest.binomial_two_sided", None),
        (harness.run_experiment, "harness.run_experiment", None),
        (harness.fit_reducers, "harness.fit_reducers", None),
        (harness.run_domain_classifier_test, "harness.run_domain_classifier_test", None),
        (harness.write_records_csv, "cli.write_outputs", None),
        (harness.write_accuracy_csv, "cli.write_outputs", None),
        (harness.write_pvalue_curves_csv, "cli.write_outputs", None),
    ]


class Tracer:
    """Spans and counts of one traced unit (one bench command, one pass)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, thread]
        self.counts = Counter()
        self._lock = threading.Lock()
        self._stacks = defaultdict(list)
        self._main = threading.main_thread().ident
        self._patched = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks[ident]
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks[self._main]
                parent = main[-1] if main else None
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, ident])
            stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[sid][2] = end
            self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def add(self, increments: dict) -> None:
        with self._lock:
            self.counts.update(increments)

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, func, name, counter):
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if isinstance(counter, dict):
                self.add(counter)
            elif counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.add(counter(bound.arguments))
            if name is None:
                return func(*args, **kwargs)
            sid = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def __enter__(self):
        try:
            for func, name, counter in _instrumented():
                self._patched += patch_everywhere(func, self._wrap(func, name, counter))
        except BaseException:
            restore(self._patched)
            self._patched = []
            raise
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.started
        restore(self._patched)
        self._patched = []

    # -- derived numbers ---------------------------------------------------

    def busy(self) -> dict:
        """Summed duration of the outermost spans of each name."""
        out = defaultdict(float)
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            p = parent
            nested = False
            while p is not None:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                out[name] += end - start
        return dict(out)

    def self_times(self) -> list:
        """Self time of every span, splitting shared instants evenly."""
        events = []
        for sid, (_, start, end, _, _) in enumerate(self.spans):
            events.append((start, 1, sid))
            events.append((end, 0, sid))
        events.sort()
        result = [0.0] * len(self.spans)
        open_children = Counter()
        active = set()
        frontier = set()
        last = events[0][0] if events else 0.0
        for t, is_open, sid in events:
            if frontier:
                share = (t - last) / len(frontier)
                for f in frontier:
                    result[f] += share
            last = t
            parent = self.spans[sid][3]
            if is_open:
                active.add(sid)
                frontier.add(sid)
                if parent in active:
                    open_children[parent] += 1
                    frontier.discard(parent)
            else:
                active.discard(sid)
                frontier.discard(sid)
                if parent in active:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        frontier.add(parent)
        return result

    def layer_self(self) -> dict:
        out = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name.split(".", 1)[0]] += own
        return dict(out)

    def first(self, name: str):
        for span in self.spans:
            if span[0] == name:
                return span
        return None


#: per-layer metric -> span whose busy time it reports
BUSY_METRICS = {
    "stattest.ks.s": "stattest.ks_pvalues_by_column",
    "stattest.mmd.s": "stattest.mmd_permutation_test",
    "stattest.chi2.s": "stattest.chi2_independence",
    "stattest.binomial.s": "stattest.binomial_two_sided",
    "dimred.fit_pca.s": "dimred.fit_pca",
    "dimred.reduce.s": "dimred.reduce",
    "nets.train_autoencoder.s": "nets.train_autoencoder",
    "nets.train_label_classifier.s": "nets.train_label_classifier",
    "nets.train_domain_classifier.s": "nets.train_domain_classifier",
    "digits.make_digits.s": "digits.make_digits",
    "data.random_split.s": "data.random_split",
    "shifts.apply_shift.s": "shifts.apply_shift",
    "harness.fit_reducers.s": "harness.fit_reducers",
    "cli.write_outputs.s": "cli.write_outputs",
}

COUNT_METRICS = ("stattest.ks.columns", "stattest.mmd.calls", "stattest.mmd.perms",
                 "stattest.mmd.madds_computed", "stattest.mmd.kernel_bytes_computed",
                 "dimred.reduce.calls", "nets.sgd_steps", "shifts.affine_images")

CELL_SPANS = ("stattest.dispatch_test", "harness.run_domain_classifier_test")


def profile(tracer: Tracer, threads: int = 1) -> dict:
    """Additive quantities of one traced unit: busy and self times, counts.

    The unit's wall time is the time spent inside the tracer's context,
    patching excluded.
    """
    out = {f"busy:{name}": value for name, value in tracer.busy().items()}
    out.update({f"count:{name}": float(value) for name, value in tracer.counts.items()})
    out.update({f"self:{layer}": value for layer, value in tracer.layer_self().items()})
    out["wall"] = tracer.wall
    experiment, fit = tracer.first("harness.run_experiment"), tracer.first("harness.fit_reducers")
    if experiment is not None and fit is not None:
        out["pool:busy"] = sum(out.get(f"busy:{name}", 0.0) for name in CELL_SPANS)
        out["pool:capacity"] = threads * (experiment[2] - fit[2])
    return out


def combine(profiles_by_kind: dict) -> dict:
    """Median profile of each kind of unit, summed over the kinds.

    A grid run has one kind (a bench command); monitor-stream has three
    (corpus generation, set-up, one pass over the stream), so its numbers
    describe one of each.
    """
    total = Counter()
    for profiles in profiles_by_kind.values():
        for key in {key for p in profiles for key in p}:
            total[key] += statistics.median(p.get(key, 0.0) for p in profiles)
    return dict(total)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(p: dict) -> dict:
    """Per-layer metrics from a combined profile."""
    def busy(span):
        return p.get(f"busy:{span}", 0.0)

    def count(name):
        return p.get(f"count:{name}", 0.0)

    out = {key: busy(span) for key, span in BUSY_METRICS.items()}
    out.update({key: count(key) for key in COUNT_METRICS})
    out["stattest.ks.us_per_column"] = _ratio(1e6 * busy("stattest.ks_pvalues_by_column"),
                                              count("stattest.ks.columns"))
    out["nets.sgd_step_ms"] = _ratio(1e3 * busy("nets.loss_and_gradients"),
                                     count("nets.sgd_steps"))
    out["digits.images_per_s"] = _ratio(count("digits.images"), busy("digits.make_digits"))
    layer_self = {key.split(":", 1)[1]: value for key, value in p.items()
                  if key.startswith("self:")}
    out.update({f"{layer}.self_s": value for layer, value in layer_self.items()})
    out["trace.self_sum_share"] = _ratio(sum(layer_self.values()), p["wall"])
    out["harness.pool_efficiency"] = _ratio(p.get("pool:busy", 0.0), p.get("pool:capacity", 0.0))
    return out
