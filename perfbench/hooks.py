"""Timing wrappers installed over glocom's public functions, from outside.

Each hook patches the name where the caller looks it up, because a
``from x import y`` binding is not visible through the defining module:
the trainer's ``sinkhorn`` is ``glocom.trainer.sinkhorn``, not
``glocom.ecr.sinkhorn``. A hook whose target no longer exists is skipped
with a warning; the metrics of a span none of whose targets exist read
null, and so do those whose observer fails on a changed return value.

Spans nest: a wrapper's self time is its duration minus the time of the
wrapped calls made inside it. A hook with ``within`` set times only the
calls made inside that span.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0


class Recorder:
    """In-memory span totals, per-call observations and step intervals."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.values: dict[str, list] = {}
        self.broken: set[str] = set()  # spans whose observer failed
        self.step_intervals: list[float] = []
        self.last_step: Optional[float] = None
        self._open: list[str] = []  # names of the spans now running
        self._children: list[float] = []  # their hooked calls' time so far

    def enter(self, name: str) -> None:
        self._open.append(name)
        self._children.append(0.0)

    def exit(self, seconds: float) -> None:
        name = self._open.pop()
        children = self._children.pop()
        if self._children:
            self._children[-1] += seconds
        st = self.stats.setdefault(name, Stat())
        st.calls += 1
        st.total += seconds
        st.self_total += seconds - children

    def inside(self, name: str) -> bool:
        return name in self._open

    def note(self, key: str, value) -> None:
        self.values.setdefault(key, []).append(value)

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.rec.enter(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec.exit(time.perf_counter() - self.t0)
        return False


# -------------------------------------------------------------- observers
# Called with (recorder, call args, result) after the wrapped call returns.


def _dense_bytes(rec, args, result):
    rec.note("dense_bytes", 8 * result.shape[0] * result.shape[1])


def _kmeans_iters(rec, args, result):
    # one history entry per Lloyd iteration plus the final inertia
    rec.note("kmeans_iters", len(result.inertia_history) - 1)


def _plan(rec, args, result):
    rec.note("sinkhorn_iters", result.iterations_used)
    rec.note("sinkhorn_unconverged", 0 if result.converged else 1)
    rec.note("sinkhorn_marginal_err", max(result.row_err, result.col_err))


def _kernel(rec, args, result):
    V, K = np.shape(args[0])
    rec.note("kernel_iters", int(result[2]))
    # computed, not measured: two half-updates each read the V x K log
    # kernel, the convergence check reads it again and writes the plan,
    # plus the two potentials read and written once each
    rec.note("kernel_bytes_per_iter", 8 * (4 * V * K + 2 * (V + K)))


def _step(rec, args, result):
    now = time.perf_counter()
    if rec.last_step is not None:
        rec.step_intervals.append(now - rec.last_step)
    rec.last_step = now


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "name" or "Class.method"
    span: str
    observe: Optional[Callable] = None
    # when set, only calls made inside this span are timed; the others
    # count in their caller's self time
    within: Optional[str] = None


HOOKS = (
    Hook("glocom.corpus", "preprocess", "corpus.preprocess"),
    Hook("glocom.corpus", "tfidf", "corpus.tfidf"),
    Hook("glocom.corpus", "read_bow", "corpus.read_bow"),
    Hook("glocom.corpus", "BowCorpus.dense", "corpus.dense", _dense_bytes),
    Hook("glocom.aggregation", "kmeans", "aggregation.kmeans", _kmeans_iters),
    Hook("glocom.trainer", "build_global_corpus", "aggregation.build_global_corpus"),
    # build_global_corpus calls it too, during train
    Hook("glocom.aggregation", "build_global_docs", "aggregation.build_global_docs",
         within="cli.infer"),
    Hook("glocom.trainer", "train", "trainer.train"),
    Hook("glocom.trainer", "squared_distances", "ecr.squared_distances"),
    Hook("glocom.model", "squared_distances", "ecr.squared_distances"),
    Hook("glocom.trainer", "sinkhorn", "ecr.sinkhorn", _plan),
    Hook("glocom.ecr", "sinkhorn_log", "kernels.sinkhorn_log", _kernel),
    Hook("glocom.model", "GlocomModel.forward_backward", "model.forward_backward"),
    Hook("glocom.model", "compute_beta", "model.compute_beta"),
    Hook("glocom.model", "compute_beta_backward", "model.compute_beta_backward"),
    Hook("glocom.model", "infer", "model.infer"),
    Hook("glocom.model", "write_matrix_csv", "model.write_matrix_csv"),
    Hook("glocom.trainer", "save_checkpoint", "model.save_checkpoint"),
    Hook("glocom.model", "load_checkpoint", "model.load_checkpoint"),
    Hook("glocom.numerics", "Encoder.forward", "numerics.encoder_forward"),
    Hook("glocom.numerics", "Encoder.backward", "numerics.encoder_backward"),
    Hook("glocom.numerics", "Adam.step", "numerics.adam_step", _step),
    Hook("glocom.eval", "npmi_coherence", "eval.npmi_coherence"),
)

STAGES = ("preprocess", "cluster", "train", "infer", "eval")


def _wrap(rec: Recorder, hook: Hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook.within is not None and not rec.inside(hook.within):
            return fn(*args, **kwargs)
        with rec.span(hook.span):
            result = fn(*args, **kwargs)
        if hook.observe is not None and hook.span not in rec.broken:
            try:
                hook.observe(rec, args[1:] if "." in hook.attr else args, result)
            except Exception as exc:  # noqa: BLE001 - a changed signature must not stop the run
                print(f"perfbench: cannot observe {hook.span} ({type(exc).__name__}: "
                      f"{exc}); its metrics read null", file=sys.stderr)
                rec.broken.add(hook.span)
        return result

    return wrapper


def install(rec: Recorder, hooks=HOOKS) -> tuple[set, Callable[[], None]]:
    """Patch every hook that resolves. Returns the spans none of whose
    targets resolved, and a function that restores the originals."""
    resolved, undo = set(), []
    for hook in hooks:
        try:
            owner = importlib.import_module(hook.module)
            *path, name = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            print(f"perfbench: trace target {hook.module}.{hook.attr} not found",
                  file=sys.stderr)
            continue
        setattr(owner, name, _wrap(rec, hook, original))
        undo.append((owner, name, original))
        resolved.add(hook.span)

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return {h.span for h in hooks} - resolved, restore


# --------------------------------------------------------------- metrics

# Pseudo-spans naming the two kinds of traced pass. tracemalloc slows every
# allocation, so allocation peaks come from a pass of their own and the
# timings from a pass without it; each pass lists the other kind as missing.
HOOKED = "pass.hooks"
TRACEMALLOC = "pass.tracemalloc"


def _total(span):
    return lambda r: r.stats[span].total if span in r.stats else 0.0


def _self(span):
    return lambda r: r.stats[span].self_total if span in r.stats else 0.0


def _calls(span):
    return lambda r: r.stats[span].calls if span in r.stats else 0


def _sum(key):
    return lambda r: sum(r.values.get(key, ()))


def _mean(key):
    return lambda r: float(np.mean(r.values[key])) if r.values.get(key) else 0.0


def _max(key):
    return lambda r: float(np.max(r.values[key])) if r.values.get(key) else 0.0


def _step_ms(q):
    return lambda r: (float(np.percentile(r.step_intervals, q)) * 1e3
                      if r.step_intervals else 0.0)


def _iter_us(r):
    iters = sum(r.values.get("kernel_iters", ()))
    return _total("kernels.sinkhorn_log")(r) / iters * 1e6 if iters else 0.0


# (name, unit, better, spans it needs, value from the recorder)
LAYER_METRICS = [
    ("corpus.preprocess_s", "s", "lower", ("corpus.preprocess",), _total("corpus.preprocess")),
    ("corpus.tfidf_s", "s", "lower", ("corpus.tfidf",), _total("corpus.tfidf")),
    ("corpus.read_bow_s", "s", "lower", ("corpus.read_bow",), _total("corpus.read_bow")),
    ("corpus.read_bow_calls", "count", "lower", ("corpus.read_bow",), _calls("corpus.read_bow")),
    ("corpus.dense_calls", "count", "lower", ("corpus.dense",), _calls("corpus.dense")),
    ("corpus.dense_bytes", "B", "lower", ("corpus.dense",), _sum("dense_bytes")),
    ("aggregation.kmeans_s", "s", "lower", ("aggregation.kmeans",), _total("aggregation.kmeans")),
    ("aggregation.kmeans_iters", "count", "lower", ("aggregation.kmeans",), _sum("kmeans_iters")),
    ("aggregation.build_global_corpus_s", "s", "lower", ("aggregation.build_global_corpus",),
     _total("aggregation.build_global_corpus")),
    ("aggregation.build_global_docs_s", "s", "lower", ("aggregation.build_global_docs",),
     _total("aggregation.build_global_docs")),
    ("trainer.steps", "count", "higher", ("numerics.adam_step",), _calls("numerics.adam_step")),
    ("trainer.step_samples", "count", "higher", ("numerics.adam_step",),
     lambda r: len(r.step_intervals)),
    ("trainer.step_p50_ms", "ms", "lower", ("numerics.adam_step",), _step_ms(50)),
    ("trainer.step_p99_ms", "ms", "lower", ("numerics.adam_step",), _step_ms(99)),
    ("trainer.self_s", "s", "lower", ("trainer.train",), _self("trainer.train")),
    ("ecr.squared_distances_calls", "count", "lower", ("ecr.squared_distances",),
     _calls("ecr.squared_distances")),
    ("ecr.squared_distances_s", "s", "lower", ("ecr.squared_distances",),
     _total("ecr.squared_distances")),
    ("ecr.sinkhorn_calls", "count", "lower", ("ecr.sinkhorn",), _calls("ecr.sinkhorn")),
    ("ecr.sinkhorn_s", "s", "lower", ("ecr.sinkhorn",), _total("ecr.sinkhorn")),
    ("ecr.sinkhorn_self_s", "s", "lower", ("ecr.sinkhorn", "kernels.sinkhorn_log"),
     _self("ecr.sinkhorn")),
    ("ecr.sinkhorn_iters_mean", "count", "lower", ("ecr.sinkhorn",), _mean("sinkhorn_iters")),
    ("ecr.sinkhorn_unconverged_ratio", "ratio", "lower", ("ecr.sinkhorn",),
     _mean("sinkhorn_unconverged")),
    ("ecr.sinkhorn_marginal_err_max", "1", "lower", ("ecr.sinkhorn",),
     _max("sinkhorn_marginal_err")),
    ("kernels.sinkhorn_log_s", "s", "lower", ("kernels.sinkhorn_log",),
     _total("kernels.sinkhorn_log")),
    ("kernels.iter_us", "us", "lower", ("kernels.sinkhorn_log",), _iter_us),
    ("kernels.bytes_per_iter", "B", "lower", ("kernels.sinkhorn_log",),
     _max("kernel_bytes_per_iter")),
    ("model.forward_backward_s", "s", "lower", ("model.forward_backward",),
     _total("model.forward_backward")),
    ("model.forward_backward_self_s", "s", "lower",
     ("model.forward_backward", "numerics.encoder_forward", "numerics.encoder_backward",
      "model.compute_beta", "model.compute_beta_backward"),
     _self("model.forward_backward")),
    ("model.compute_beta_s", "s", "lower", ("model.compute_beta",), _total("model.compute_beta")),
    ("model.compute_beta_backward_s", "s", "lower", ("model.compute_beta_backward",),
     _total("model.compute_beta_backward")),
    ("model.infer_s", "s", "lower", ("model.infer",), _total("model.infer")),
    ("model.write_matrix_csv_s", "s", "lower", ("model.write_matrix_csv",),
     _total("model.write_matrix_csv")),
    ("model.save_checkpoint_s", "s", "lower", ("model.save_checkpoint",),
     _total("model.save_checkpoint")),
    ("model.load_checkpoint_s", "s", "lower", ("model.load_checkpoint",),
     _total("model.load_checkpoint")),
    ("numerics.encoder_forward_s", "s", "lower", ("numerics.encoder_forward",),
     _total("numerics.encoder_forward")),
    ("numerics.encoder_backward_s", "s", "lower", ("numerics.encoder_backward",),
     _total("numerics.encoder_backward")),
    ("numerics.adam_step_s", "s", "lower", ("numerics.adam_step",), _total("numerics.adam_step")),
    ("eval.npmi_coherence_s", "s", "lower", ("eval.npmi_coherence",),
     _total("eval.npmi_coherence")),
] + [
    (f"cli.{stage}_self_s", "s", "lower", (HOOKED,), _self(f"cli.{stage}")) for stage in STAGES
] + [
    (f"cli.{stage}_peak_alloc_mb", "MB", "lower", (TRACEMALLOC,),
     _max(f"peak_alloc_mb.{stage}")) for stage in STAGES
]


def layer_metrics(rec: Recorder, missing: set) -> dict:
    """Every per-layer metric by name; null where a needed span is missing."""
    missing = missing | rec.broken
    return {
        name: None if missing.intersection(needs) else value(rec)
        for name, _unit, _better, needs, value in LAYER_METRICS
    }
