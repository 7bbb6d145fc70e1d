"""Span tracer that rebinds the program's layer functions from outside.

Each entry of WRAPPED names a function by the module that *calls* it, so
rebinding the attribute there routes every call through a timing
wrapper.  A span records its name, CPU start and end, and the span that
was open when it began; self time is the span's duration minus the time
its child spans cover.  Names the program no longer has are reported as
absent instead of failing the run, so the table survives refactors.
"""

import functools
import importlib
import time
from collections import Counter

import numpy as np

CLOCK = time.process_time

# (module whose global is rebound, attribute, span name).  One span name
# may be bound in several caller modules; each call goes through exactly
# one binding, so nothing is counted twice.
WRAPPED = (
    ("skewt_estim.bench", "run_experiment", "bench.experiments.run_experiment"),
    ("skewt_estim.bench.experiments", "run_estimator", "bench.experiments.run_estimator"),
    ("skewt_estim.bench.experiments", "simulate", "bench.gnss.simulate"),
    ("skewt_estim.bench", "simulate", "bench.gnss.simulate"),
    ("skewt_estim.bench.experiments", "linearize", "bench.gnss.linearize"),
    ("skewt_estim.bench", "linearize", "bench.gnss.linearize"),
    ("skewt_estim.bench.gnss", "sample_rng", "skewt.sample_rng"),
    ("skewt_estim.bench.experiments", "nees", "bench.metrics.nees"),
    ("skewt_estim.bench.experiments", "stf_update", "filtering.stf_update"),
    ("skewt_estim.filtering", "stf_update", "filtering.stf_update"),
    ("skewt_estim.bench.experiments", "predict", "filtering.predict"),
    ("skewt_estim.filtering", "predict", "filtering.predict"),
    ("skewt_estim.filtering", "_augmented_update", "filtering._augmented_update"),
    ("skewt_estim.smoothing", "_augmented_update", "filtering._augmented_update"),
    ("skewt_estim.filtering", "rec_trunc", "truncnorm.rec_trunc"),
    ("skewt_estim.filtering", "solve_spd", "linalg.solve_spd"),
    ("skewt_estim.smoothing", "solve_spd", "linalg.solve_spd"),
    ("skewt_estim.bench.experiments", "sts_run", "smoothing.sts_run"),
    ("skewt_estim.smoothing", "forward_pass", "smoothing.forward_pass"),
    ("skewt_estim.smoothing", "backward_pass", "smoothing.backward_pass"),
    ("skewt_estim.smoothing", "update_lambda", "smoothing.update_lambda"),
    ("skewt_estim.bench.experiments", "kf_gated_update", "baselines.kf_gated_update"),
    ("skewt_estim.baselines", "kf_gated_update", "baselines.kf_gated_update"),
    ("skewt_estim.bench.experiments", "rtss_gated_run", "baselines.rtss_gated_run"),
    ("skewt_estim.bench.experiments", "pf_run", "baselines.pf_run"),
    ("skewt_estim.baselines", "_component_log_likelihoods", "baselines.pf_likelihood"),
    ("skewt_estim.baselines", "_systematic_resample", "baselines.resample"),
    ("skewt_estim.baselines", "_density_table", "baselines.density_table"),
    ("skewt_estim.baselines", "log_pdf", "skewt.log_pdf"),
)


def _estimator_name(args, kwargs):
    return args[0] if args else kwargs.get("name")


def _observe_vb(counts, args, kwargs, result):
    _, diag = result
    counts["filtering.stf_update.vb_iters"] += diag.iterations
    counts["filtering.stf_update.nonconverged"] += not diag.converged


def _observe_points(counts, args, kwargs, result):
    counts["skewt.log_pdf.points"] += int(np.size(args[1] if len(args) > 1 else kwargs["e"]))


TAGS = {"bench.experiments.run_estimator": _estimator_name}
OBSERVERS = {"filtering.stf_update": _observe_vb, "skewt.log_pdf": _observe_points}


class Tracer:
    """Installs the WRAPPED timers on entry and restores the originals on exit.

    Spans and counts accumulate over every `with` block of one Tracer.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, tag]
        self.failed = Counter()
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._saved = []
        self._caches = []

    def __enter__(self):
        self.absent = []
        for module_name, attr, span_name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if hasattr(fn, "cache_info"):
                self._caches.append((span_name, fn, fn.cache_info().misses))
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        for span_name, fn, misses in self._caches:
            self.counts[f"{span_name}.misses"] += fn.cache_info().misses - misses
        self._caches.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, failed, counts = self.spans, self._stack, self.failed, self.counts
        tag_of = TAGS.get(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tag_of(args, kwargs) if tag_of else None]
            spans.append(span)
            stack.append(index)
            span[1] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed[name] += 1
                raise
            finally:
                span[2] = CLOCK()
                stack.pop()
            if observe:
                observe(counts, args, kwargs, result)
            return result

        return timed

    def _self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_stats(self):
        """Per span name: calls and self CPU seconds."""
        own = self._self_times()
        stats = {}
        for span, self_s in zip(self.spans, own):
            entry = stats.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return stats

    def self_share_under(self, name, ancestor, tag):
        """Share of the time of `ancestor` spans tagged `tag` that is the
        self time of `name` spans nested under them."""
        own = self._self_times()
        inside = 0.0
        total = 0.0
        for i, (span_name, start, end, parent, span_tag) in enumerate(self.spans):
            if span_name == ancestor and span_tag == tag:
                total += end - start
            elif span_name == name:
                while parent >= 0 and not (
                    self.spans[parent][0] == ancestor and self.spans[parent][4] == tag
                ):
                    parent = self.spans[parent][3]
                if parent >= 0:
                    inside += own[i]
        return inside / total if total > 0.0 else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, overhead_frac):
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    stats = tracer.layer_stats()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    stf_calls = calls("filtering.stf_update")
    out = {
        "truncnorm.rec_trunc.calls": (calls("truncnorm.rec_trunc"), "count"),
        "truncnorm.rec_trunc.self_s": (self_s("truncnorm.rec_trunc"), "s"),
        "truncnorm.rec_trunc.share_of_sts": (
            tracer.self_share_under("truncnorm.rec_trunc", "bench.experiments.run_estimator", "sts"),
            "fraction",
        ),
        "filtering.stf_update.calls": (stf_calls, "count"),
        "filtering.stf_update.self_s": (self_s("filtering.stf_update"), "s"),
        "filtering.stf_update.vb_iters_mean": (
            _ratio(counts["filtering.stf_update.vb_iters"], stf_calls), "iterations"),
        "filtering.stf_update.nonconverged_frac": (
            _ratio(counts["filtering.stf_update.nonconverged"], stf_calls), "fraction"),
        "filtering.stf_update.failed": (tracer.failed["filtering.stf_update"], "count"),
        "filtering._augmented_update.calls": (calls("filtering._augmented_update"), "count"),
        "filtering._augmented_update.self_s": (self_s("filtering._augmented_update"), "s"),
        "smoothing.sts_run.self_s": (self_s("smoothing.sts_run"), "s"),
        "smoothing.outer_iters_mean": (
            _ratio(calls("smoothing.forward_pass"), calls("smoothing.sts_run")), "iterations"),
        "smoothing.forward_pass.self_s": (self_s("smoothing.forward_pass"), "s"),
        "smoothing.backward_pass.self_s": (self_s("smoothing.backward_pass"), "s"),
        "smoothing.update_lambda.self_s": (self_s("smoothing.update_lambda"), "s"),
        "linalg.solve_spd.calls": (calls("linalg.solve_spd"), "count"),
        "linalg.solve_spd.self_s": (self_s("linalg.solve_spd"), "s"),
        "skewt.log_pdf.calls": (calls("skewt.log_pdf"), "count"),
        "skewt.log_pdf.points": (counts["skewt.log_pdf.points"], "count"),
        "skewt.log_pdf.self_s": (self_s("skewt.log_pdf"), "s"),
        "baselines.density_table.misses": (counts["baselines.density_table.misses"], "count"),
        "baselines.density_table.self_s": (self_s("baselines.density_table"), "s"),
        "baselines.pf_run.self_s": (self_s("baselines.pf_run"), "s"),
        "baselines.pf_run.failed": (tracer.failed["baselines.pf_run"], "count"),
        "baselines.pf_likelihood.self_s": (self_s("baselines.pf_likelihood"), "s"),
        "baselines.resample.per_step": (
            _ratio(calls("baselines.resample"), calls("baselines.pf_likelihood")), "1/step"),
        "baselines.kf_gated_update.calls": (calls("baselines.kf_gated_update"), "count"),
        "baselines.kf_gated_update.self_s": (self_s("baselines.kf_gated_update"), "s"),
        "baselines.rtss_gated_run.self_s": (self_s("baselines.rtss_gated_run"), "s"),
        "filtering.predict.self_s": (self_s("filtering.predict"), "s"),
        "bench.gnss.simulate.self_s": (self_s("bench.gnss.simulate"), "s"),
        "bench.gnss.linearize.calls": (calls("bench.gnss.linearize"), "count"),
        "bench.gnss.linearize.self_s": (self_s("bench.gnss.linearize"), "s"),
        "skewt.sample_rng.self_s": (self_s("skewt.sample_rng"), "s"),
        "bench.metrics.nees.self_s": (self_s("bench.metrics.nees"), "s"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
        "trace.absent_names": (len(tracer.absent), "count"),
    }
    return out
