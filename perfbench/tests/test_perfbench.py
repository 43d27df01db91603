"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import hooks
import run
from gen import VARIANTS, CorpusSpec, generate, variant_dir, write_inputs
from pipeline import run_passes
from workloads import WORKLOADS, Workload

ROOT = os.path.dirname(run.HERE)
TINY = Workload(
    "tiny",
    CorpusSpec(V=30, K=3, G=2, D=60),
    epochs=2,
    train_flags=("--ecr.nu", "0.05", "--batch_size", "16",
                 "--hidden_width", "10", "--embed_dim", "6"),
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def quiet(*_):
    pass


def test_generator_is_deterministic_per_seed(tmp_path):
    spec = WORKLOADS["quickstart"].corpus
    assert generate(spec, 7, "quickstart") == generate(spec, 7, "quickstart")
    assert generate(spec, 7, "quickstart") != generate(spec, 8, "quickstart")
    a = write_inputs(spec, 7, str(tmp_path / "a"), "quickstart")
    b = write_inputs(spec, 7, str(tmp_path / "b"), "quickstart")
    assert a == b
    corpora = {(tmp_path / "a" / f"v{i}" / "corpus.txt").read_bytes() for i in range(VARIANTS)}
    assert len(corpora) == VARIANTS


def test_generator_output_is_pinned(tmp_path):
    # inputs must stay byte-identical across commits, or a parent/change
    # comparison compares different work
    digest = write_inputs(CorpusSpec(V=30, K=3, G=2, D=20), 1, str(tmp_path), "pin")
    assert digest == "3ec2205107a7cc7e8d279900271fd8b03d9fcaf24f7f52f1771172d156459ced"


def _passes(tmp_path, inputs, trace=False):
    passes = run_passes(TINY, inputs, str(tmp_path / "passes"), trace)
    for p in passes:
        p["peak_rss_mb"] = 1.0
    return passes


def test_traced_and_untraced_passes_give_identical_artifacts(tmp_path):
    inputs = str(tmp_path / "in")
    digest = write_inputs(TINY.corpus, 3, inputs, "tiny")
    passes = _passes(tmp_path, inputs, trace=True)
    assert [p["trace"] for p in passes] == [None, "hooks", "memory"]
    assert [p["variant"] for p in passes] == [0, 0, 0]
    for p in passes:
        assert all(s["error"] is None for _, s in run.stage_runs(p)), p["stages"]
    assert passes[0]["artifacts"] == passes[1]["artifacts"] == passes[2]["artifacts"]
    assert None not in passes[0]["artifacts"].values()

    result = run.summarize(TINY, 3, digest, passes, True, quiet)
    assert result["correct"] and result["failed"] == 0
    # every stage command, repetitions included, plus two comparisons
    assert result["attempted"] == sum(len(run.stage_runs(p)) for p in passes) + 2
    assert len(passes[0]["repeats"]) > 0 and not passes[1]["repeats"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(v is not None for v in metrics.values()), metrics
    assert metrics["trainer.steps"] == 2 * 4  # 60 docs in batches of 16
    assert metrics["ecr.sinkhorn_calls"] == metrics["trainer.steps"]
    assert metrics["corpus.read_bow_calls"] == 4
    assert metrics["cli.train_peak_alloc_mb"] > 0


def test_broken_stage_input_counts_as_failed_and_run_continues(tmp_path):
    inputs = str(tmp_path / "in")
    digest = write_inputs(TINY.corpus, 3, inputs, "tiny")
    with open(os.path.join(variant_dir(inputs, 0), "labels.txt"), "a", encoding="utf-8") as fh:
        fh.write("0\n")  # one label more than documents: preprocess exits 4
    passes = _passes(tmp_path, inputs)
    assert [p["variant"] for p in passes] == [0, 1, 2]
    broken, *rest = passes
    assert broken["stages"]["preprocess"]["code"] == 4
    assert all(s["error"] is not None for s in broken["stages"].values())
    # the passes over the other variants still run and succeed; set-up
    # repetitions that reach the broken variant fail again
    assert all(s["error"] is None for p in rest for s in p["stages"].values())
    runs = [s for p in passes for _, s in run.stage_runs(p)]
    result = run.summarize(TINY, 3, digest, passes, False, quiet)
    assert result["attempted"] == len(runs)
    assert result["failed"] == sum(s["error"] is not None for s in runs) >= 5
    assert result["correct"] is False
    assert result["metrics"]["td"]["value"] is None


def test_missing_hook_target_reads_null_without_crashing(capsys):
    rec = hooks.Recorder()
    gone = hooks.Hook("glocom.ecr", "no_such_function", "ecr.sinkhorn")
    missing, restore = hooks.install(rec, (gone,))
    restore()
    assert missing == {"ecr.sinkhorn"}
    assert "not found" in capsys.readouterr().err
    metrics = hooks.layer_metrics(rec, missing)
    assert metrics["ecr.sinkhorn_calls"] is None
    assert metrics["ecr.sinkhorn_iters_mean"] is None
    assert metrics["model.infer_s"] == 0.0


def test_span_survives_losing_one_of_its_targets():
    import glocom.model

    rec = hooks.Recorder()
    pair = (hooks.Hook("glocom.trainer", "no_longer_imported", "ecr.squared_distances"),
            hooks.Hook("glocom.model", "squared_distances", "ecr.squared_distances"))
    missing, restore = hooks.install(rec, pair)
    try:
        space = glocom.model.TopicSpace([[0.0, 1.0]], [[1.0, 1.0]], tau=0.2)
        assert space.squared_dists().tolist() == [[1.0]]
    finally:
        restore()
    assert missing == set()
    assert hooks.layer_metrics(rec, missing)["ecr.squared_distances_calls"] == 1


def test_hook_within_a_span_times_only_calls_inside_it(tmp_path):
    import glocom.corpus

    labels = tmp_path / "labels.txt"
    labels.write_text("1\n2\n")
    rec = hooks.Recorder()
    scoped = hooks.Hook("glocom.corpus", "read_label_file", "corpus.read_bow",
                        within="cli.infer")
    missing, restore = hooks.install(rec, (scoped,))
    try:
        with rec.span("cli.train"):
            glocom.corpus.read_label_file(str(labels))
        with rec.span("cli.infer"):
            glocom.corpus.read_label_file(str(labels))
    finally:
        restore()
    assert hooks.layer_metrics(rec, missing)["corpus.read_bow_calls"] == 1
    assert rec.stats["cli.infer"].self_total < rec.stats["cli.infer"].total


def test_failing_observer_reads_null_without_crashing(tmp_path, capsys):
    import glocom.corpus

    def observe(rec, args, result):
        raise TypeError("return value changed shape")

    labels = tmp_path / "labels.txt"
    labels.write_text("1\n2\n")
    rec = hooks.Recorder()
    changed = hooks.Hook("glocom.corpus", "read_label_file", "aggregation.kmeans", observe)
    missing, restore = hooks.install(rec, (changed,))
    try:
        assert glocom.corpus.read_label_file(str(labels)).tolist() == [1, 2]
    finally:
        restore()
    assert "cannot observe aggregation.kmeans" in capsys.readouterr().err
    metrics = hooks.layer_metrics(rec, missing)
    assert metrics["aggregation.kmeans_s"] is None
    assert metrics["aggregation.kmeans_iters"] is None


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    emitted = {n: u for n, u, *_ in hooks.LAYER_METRICS}
    emitted.update(dict(run.QUALITY_LAYER + (run.TRACE_OVERHEAD,)))
    assert layer == emitted
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for name in list(e2e) + list(layer) + list(WORKLOADS):
        assert NAME.match(name), name


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_pins_the_transport_weight(name):
    assert "--ecr.nu" in WORKLOADS[name].train_flags
