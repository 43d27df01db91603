"""Whole-pipeline benchmark for glocom.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Writes the workload's corpus variants from the seed, then runs passes of
the five README stage commands in a fresh worker process (``pipeline.py``)
until ``--seconds`` is used up, and reports medians over the passes. With
``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` the
passes alternate untraced and hooked, one tracemalloc pass follows, and it
prints the per-layer metrics and the tracing overhead. Any pass whose
artifacts differ from those of the first pass over the same variant counts
as failed. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the glocom sources are not beside the
benchmark (``src/glocom`` under the checkout root).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from gen import write_inputs  # noqa: E402
from hooks import LAYER_METRICS, STAGES  # noqa: E402
from pipeline import QUALITY_PASSES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# every run must end within this many seconds of starting
HARD_LIMIT_S = 170.0

END_TO_END = (
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("train_docs_per_s", "docs/s"),
    ("infer_docs_per_s", "docs/s"),
    ("peak_rss_mb", "MB"),
    ("td", "ratio"),
)
# reported by the traced run beside the layer metrics
QUALITY_LAYER = (("eval.npmi", "1"), ("eval.nmi", "1"))
TRACE_OVERHEAD = ("trace.overhead_s", "s")


# At most nproc; the step matrices are small, and one thread ran
# quickstart faster than two on a 2-core host.
BLAS_THREADS = 1


def worker_env() -> dict:
    env = dict(os.environ)
    n = str(BLAS_THREADS)
    for var in ("GLOCOM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = n
    env.pop("GLOCOM_PURE_PYTHON", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def source_stamp() -> dict:
    """Digest of the package sources, plus the git commit when there is one."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "glocom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"src_sha256": h.hexdigest(), "git_commit": commit}


def run_worker(workload, inputs: str, out: str, trace: bool, seconds: float,
               timeout: float) -> list[dict]:
    """One worker process and the passes it ran; a crash or timeout is one
    pass with every stage failed."""
    cmd = [sys.executable, os.path.join(HERE, "pipeline.py"), "--workload",
           workload.name, "--inputs", inputs, "--out", out, "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
        error = None if proc.returncode == 0 else f"worker exit {proc.returncode}: {proc.stderr[-500:]}"
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {timeout:.0f}s"
    if error is not None:
        return [{"stages": {s: {"seconds": None, "code": None, "error": error} for s in STAGES},
                 "quality": None, "artifacts": {}, "trace": None}]
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def stage_runs(p: dict) -> list[tuple[str, dict]]:
    """Every stage command a pass ran, repetitions included."""
    return list(p["stages"].items()) + [kv for rep in p.get("repeats", ())
                                         for kv in rep.items()]


def pass_metrics(workload, p: dict) -> dict:
    """Samples of each end-to-end metric from one pass (several where the
    pass repeated a stage); None when a stage failed."""
    if any(s["error"] is not None for _, s in stage_runs(p)):
        return None
    st = p["stages"]
    c = workload.corpus

    def samples(stage):
        # a repeated group's first run follows other stages and is colder
        # than its repetitions, so it counts only when there are none
        return [r for r in p.get("repeats", ()) if stage in r] or [st]

    return {
        "pipeline_s": [sum(s["seconds"] for s in st.values())],
        "setup_s": [r["preprocess"]["seconds"] + r["cluster"]["seconds"]
                    for r in samples("cluster")],
        "train_docs_per_s": [workload.epochs * c.D / st["train"]["seconds"]],
        "infer_docs_per_s": [c.D / r["infer"]["seconds"] for r in samples("infer")],
        "peak_rss_mb": [p["peak_rss_mb"]],
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, traced: bool, started: float,
                 log=print) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(ROOT, ".perfbench_work", f"{name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = os.path.join(work, "inputs")
        digest = write_inputs(workload.corpus, seed, inputs, tag=name)
        elapsed = time.perf_counter() - started
        passes = run_worker(workload, inputs, os.path.join(work, "passes"), traced,
                            seconds - elapsed, HARD_LIMIT_S - elapsed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, digest, passes, traced, log)


def summarize(workload, seed, digest, passes, traced, log) -> dict:
    attempted = failed = 0
    errors = []
    for p in passes:
        for stage, s in stage_runs(p):
            attempted += 1
            if s["error"] is not None:
                failed += 1
                errors.append(f"{stage}: {s['error']}")
    # same inputs and seeds: every pass over a variant must produce the
    # same artifacts, which also proves the trace hooks transparent
    ok = [p for p in passes if all(s["error"] is None for _, s in stage_runs(p))]
    reference = {}
    for p in ok:
        if p["variant"] not in reference:
            reference[p["variant"]] = p["artifacts"]
            continue
        attempted += 1
        if p["artifacts"] != reference[p["variant"]]:
            failed += 1
            errors.append(f"{p['trace'] or 'untraced'} pass artifacts differ from the "
                          f"first pass over variant {p['variant']}")

    untraced = [p for p in passes if p["trace"] is None]
    plain = [m for m in (pass_metrics(workload, p) for p in untraced) if m is not None]
    e2e = {k: _median(x for m in plain for x in m[k]) for k, _ in END_TO_END if k != "td"}
    first = untraced[:QUALITY_PASSES]
    e2e["td"] = (_median(p["quality"]["td"] for p in first)
                 if all(p["quality"] for p in first) else None)
    if traced:
        layered = [p for p in ok if p["trace"]]
        # each metric comes from the pass kind that measures it; null
        # in every pass means a hook target is gone
        metrics = {name: _median(p["layers"][name] for p in layered if "layers" in p)
                   for name, *_ in LAYER_METRICS}
        q = layered[0]["quality"] if layered else {}
        metrics["eval.npmi"], metrics["eval.nmi"] = q.get("npmi"), q.get("nmi")
        traced_s = _median(pass_metrics(workload, p)["pipeline_s"][0]
                           for p in layered if p["trace"] == "hooks")
        metrics[TRACE_OVERHEAD[0]] = (None if traced_s is None or e2e["pipeline_s"] is None
                                      else traced_s - e2e["pipeline_s"])
        units = {n: u for n, u, *_ in LAYER_METRICS}
        units.update(dict(QUALITY_LAYER + (TRACE_OVERHEAD,)))
    else:
        metrics = e2e
        units = dict(END_TO_END)

    quality = ok[0]["quality"] if ok else {}
    info = {
        "workload": workload.name,
        "seed": seed,
        "inputs_sha256": digest,
        "env": {**(ok[0].get("env", {}) if ok else {}), **source_stamp()},
        "passes": {kind or "untraced": sum(p["trace"] == kind for p in passes)
                   for kind in (None, "hooks", "memory")},
        "stage_median_s": {s: _median(p["stages"][s]["seconds"] for p in ok if p["trace"] is None)
                           for s in STAGES},
        "samples": {k: sum(len(m[k]) for m in plain) for k in ("pipeline_s", "setup_s",
                                                                 "infer_docs_per_s")},
        "failed_ops": failed / attempted,
        "npmi": quality.get("npmi"),
        "nmi": quality.get("nmi"),
        "errors": errors[:10],
    }
    for name, value in metrics.items():
        log(f"{workload.name:12s} {name:36s} {value!r:>24} {units[name]}")
    log(f"{workload.name:12s} {'failed_ops':36s} {info['failed_ops']!r:>24} ratio")
    log("info " + json.dumps(info, sort_keys=True))
    return {
        "correct": failed == 0 and all(v is not None for v in e2e.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="glocom whole-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "glocom", "__init__.py")):
        print(f"perfbench: no glocom sources under {SRC}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        if args.workload == "all":
            # each workload gets the full budget; the hard limit is per workload
            started = time.perf_counter()
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), started))
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
