"""Passes of the five README stage commands through ``glocom.cli.main``.

Run as a script, this is the benchmark's worker: a fresh process that runs
passes over already generated inputs, times every stage from outside,
checks each stage's artifacts, and writes ``result.json`` into its output
directory. ``--trace`` alternates untraced passes with passes under the
timing hooks of ``hooks.py``, then runs one pass under tracemalloc.

    python3 perfbench/pipeline.py --workload quickstart \
        --inputs DIR --out DIR --seconds S [--trace]

The parent sets the BLAS thread variables before starting it, because they
must be in place before numpy is first imported.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import tracemalloc
from typing import Iterator

import numpy as np

from gen import VARIANTS, variant_dir

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# artifacts that must be byte-identical between traced and untraced passes
COMPARED = ("metrics.json", os.path.join("infer", "topics.txt"))
# Short stages an untraced pass repeats, keyed by the group's last stage:
# set-up (preprocess then cluster) and infer. Each group runs again until
# it has taken SAMPLE_S, at most MAX_REPEATS extra times.
REPEATED = {"cluster": ("preprocess", "cluster"), "infer": ("infer",)}
SAMPLE_S = 1.0
MAX_REPEATS = 40
# td is the median over the first QUALITY_PASSES passes, one variant each,
# so that it repeats exactly for a seed however many passes fit; an
# untraced run makes at least that many.
QUALITY_PASSES = 3


def stage_commands(workload, inputs: str, out: str) -> list[tuple[str, list[str]]]:
    """The README stage commands for this workload, in order. Seeds are
    fixed: the program sees the workload seed only through its inputs."""
    c = workload.corpus
    corpus = os.path.join(out, "corpus")
    bow, vocab = os.path.join(corpus, "bow.txt"), os.path.join(corpus, "vocab.txt")
    assignment = os.path.join(out, "cluster", "assignment.txt")
    infer = os.path.join(out, "infer")
    return [
        ("preprocess", ["preprocess", "--corpus", os.path.join(inputs, "corpus.txt"),
                        "--labels", os.path.join(inputs, "labels.txt"),
                        "--min-freq", "1", "--min-terms", "1", "--out", corpus]),
        ("cluster", ["cluster", "--bow", bow, "--vocab", vocab,
                     "--num-clusters", str(c.G), "--seed", "0",
                     "--out", os.path.join(out, "cluster")]),
        ("train", ["train", "--bow", bow, "--vocab", vocab, "--clusters", assignment,
                   "--K", str(c.K), "--G", str(c.G), "--epochs", str(workload.epochs),
                   "--seed", "0", *workload.train_flags,
                   "--out", os.path.join(out, "train")]),
        ("infer", ["infer", "--checkpoint", os.path.join(out, "train", "checkpoint"),
                   "--bow", bow, "--vocab", vocab, "--clusters", assignment,
                   "--out", infer]),
        ("eval", ["eval", "--topics", os.path.join(infer, "topics.txt"),
                  "--theta", os.path.join(infer, "theta_local.csv"),
                  "--labels", os.path.join(corpus, "labels.txt"),
                  "--reference", bow, "--vocab", vocab,
                  "--out", os.path.join(out, "metrics.json")]),
    ]


# ------------------------------------------------------------------ checks
# Each returns None when the stage's artifacts are right, else a message.


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def _matrix(path: str, rows: int, cols: int, what: str):
    M = np.loadtxt(path, delimiter=",", ndmin=2)
    if M.shape != (rows, cols):
        return None, f"{what} has shape {M.shape}, expected {(rows, cols)}"
    if not np.all(np.isfinite(M)):
        return None, f"{what} has non-finite entries"
    return M, None


def _row_sums_one(M, what: str):
    err = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
    return None if err <= 1e-9 else f"{what} rows sum to 1 only within {err:.3g}"


def check_stage(name: str, workload, out: str, shape: dict):
    c = workload.corpus
    D, V = shape.get("D", c.D), shape.get("V", c.V)
    if name == "preprocess":
        d, v, _ = (int(x) for x in _lines(os.path.join(out, "corpus", "bow.txt"))[0].split())
        shape.update(D=d, V=v)
        if d != c.D or not 1 <= v <= c.V:
            return f"bow.txt is {d}x{v}; generated {c.D} docs over {c.V} words"
        if len(_lines(os.path.join(out, "corpus", "vocab.txt"))) != v:
            return "vocab.txt disagrees with the bow header"
        return None
    if name == "cluster":
        ids = [int(x) for x in _lines(os.path.join(out, "cluster", "assignment.txt"))]
        if len(ids) != D or min(ids) < 0 or max(ids) >= c.G:
            return f"assignment has {len(ids)} ids in [{min(ids)}, {max(ids)}]"
        return None
    if name == "train":
        rows = _lines(os.path.join(out, "train", "trajectory.csv"))[1:]
        vals = np.array([[float(x) for x in r.split(",")] for r in rows])
        if len(rows) != workload.epochs or not np.all(np.isfinite(vals)):
            return f"trajectory.csv has {len(rows)} rows or non-finite values"
        return None
    if name == "infer":
        infer = os.path.join(out, "infer")
        if len(_lines(os.path.join(infer, "topics.txt"))) != c.K:
            return "topics.txt does not have K lines"
        theta, err = _matrix(os.path.join(infer, "theta_local.csv"), D, c.K, "theta_local")
        if err:
            return err
        beta, err = _matrix(os.path.join(infer, "beta.csv"), V, c.K, "beta")
        if err:
            return err
        return _row_sums_one(theta, "theta_local") or _row_sums_one(beta, "beta")
    if name == "eval":
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
            m = json.load(fh)
        ranges = {"td": (0, 1), "npmi": (-1, 1), "nmi": (0, 1), "purity": (0, 1)}
        for key, (lo, hi) in ranges.items():
            v = m.get(key)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or not lo <= v <= hi:
                return f"metrics.json {key}={v!r} outside [{lo}, {hi}]"
        return None
    raise ValueError(name)


# ------------------------------------------------------------------ passes


def _sha256(path: str):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def env_stamp() -> dict:
    import scipy

    from glocom.kernels import BACKEND

    return {
        "backend": BACKEND,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _run_stage(name: str, argv: list, workload, out: str, shape: dict, recorder) -> dict:
    from glocom import cli

    log = io.StringIO()
    if tracemalloc.is_tracing():
        tracemalloc.reset_peak()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if recorder is None:
                code = cli.main(argv)
            else:
                with recorder.span(f"cli.{name}"):
                    code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a crash is a failed stage
        code = 1
        log.write(f"{type(exc).__name__}: {exc}\n")
    seconds = time.perf_counter() - t0
    if tracemalloc.is_tracing():
        recorder.note(f"peak_alloc_mb.{name}", tracemalloc.get_traced_memory()[1] / 2**20)
    error = None
    if code != 0:
        error = f"exit {code}: {log.getvalue().strip()[-500:]}"
    else:
        try:
            error = check_stage(name, workload, out, shape)
        except (OSError, ValueError, IndexError) as exc:
            error = f"output check failed: {type(exc).__name__}: {exc}"
    return {"seconds": seconds, "code": code, "error": error}


def run_pipeline(workload, inputs: str, out: str, setup_inputs: Iterator[str],
                 recorder=None) -> dict:
    """Run the five stages; a failing stage is recorded, never raised, and
    the stages after it still run.

    An untraced pass repeats each group of REPEATED right after its first
    run, until the group has taken SAMPLE_S in all, so that a stage of a few
    milliseconds still gets a steady median. ``repeats`` holds one dict of
    stage results per repetition. How long set-up takes depends on the
    corpus, so set-up repetitions take the next of ``setup_inputs`` each
    and write under ``out/repeat``; infer repeats over the pass's own."""
    commands = dict(stage_commands(workload, inputs, out))
    stages, shape, repeats = {}, {}, []
    for name in commands:
        stages[name] = _run_stage(name, commands[name], workload, out, shape, recorder)
        group = REPEATED.get(name)
        if group is None or recorder is not None:
            continue
        run = {n: stages[n] for n in group}
        spent = 0.0
        for _ in range(MAX_REPEATS):
            spent += sum(st["seconds"] for st in run.values())
            if spent >= SAMPLE_S or any(st["error"] for st in run.values()):
                break
            if name == "cluster":
                rep_out, rep_shape = os.path.join(out, "repeat"), {}
                argv = dict(stage_commands(workload, next(setup_inputs), rep_out))
            else:
                rep_out, rep_shape, argv = out, shape, commands
            run = {n: _run_stage(n, argv[n], workload, rep_out, rep_shape, None)
                   for n in group}
            repeats.append(run)

    quality = None
    if stages["eval"]["error"] is None:
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
            m = json.load(fh)
        quality = {k: m[k] for k in ("td", "npmi", "nmi")}
    return {
        "stages": stages,
        "repeats": repeats,
        "quality": quality,
        "artifacts": {p: _sha256(os.path.join(out, p)) for p in COMPARED},
    }


def _one_pass(workload, inputs: str, out: str, kind, setup_inputs) -> dict:
    """One pass; ``kind`` None, "hooks" (timing hooks installed for this
    pass only) or "memory" (under tracemalloc). A traced pass carries its
    per-layer metrics."""
    import hooks

    recorder = restore = None
    if kind is not None:
        recorder = hooks.Recorder()
        if kind == "hooks":
            missing, restore = hooks.install(recorder)
            missing.add(hooks.TRACEMALLOC)
        else:
            missing = {h.span for h in hooks.HOOKS} | {hooks.HOOKED}
            tracemalloc.start()
    try:
        p = run_pipeline(workload, inputs, out, setup_inputs, recorder)
    finally:
        if restore is not None:
            restore()
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        shutil.rmtree(out, ignore_errors=True)
    p["trace"] = kind
    if recorder is not None:
        p["layers"] = hooks.layer_metrics(recorder, missing)
    return p


def run_passes(workload, inputs: str, out: str, trace: bool = False,
               seconds: float = 0.0) -> list[dict]:
    """Keep starting passes while the next one is expected to end within
    ``seconds``; successive passes take successive input variants.
    Traced, passes alternate untraced and hooked, both on one variant, so
    that host speed drifts cancel in the overhead, and one tracemalloc pass
    on the first variant follows."""
    kinds = (None, "hooks") if trace else (None,)
    setup_inputs = itertools.cycle([variant_dir(inputs, v) for v in range(VARIANTS)])
    passes = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        n = len(passes)
        variant = n // len(kinds) % VARIANTS
        passes.append(_one_pass(workload, variant_dir(inputs, variant),
                                os.path.join(out, f"pass{n}"), kinds[n % len(kinds)],
                                setup_inputs))
        passes[-1]["variant"] = variant
        now = time.perf_counter()
        done = len(passes) >= (len(kinds) if trace else QUALITY_PASSES)
        if done and now + (now - start) > t0 + seconds:
            break
    if trace:
        passes.append(_one_pass(workload, variant_dir(inputs, 0),
                                os.path.join(out, "memory"), "memory", setup_inputs))
        passes[-1]["variant"] = 0
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    # imported up front so the first stage is not charged for imports
    import glocom
    from glocom import aggregation, cli, corpus, ecr, eval, kernels, model, numerics, trainer  # noqa: F401

    if not glocom.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"imported glocom from {glocom.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    os.makedirs(args.out, exist_ok=True)
    passes = run_passes(WORKLOADS[args.workload], args.inputs, args.out, args.trace,
                        args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = env_stamp()
    for p in passes:
        p.update(peak_rss_mb=rss_mb, env=env)
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(passes, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
