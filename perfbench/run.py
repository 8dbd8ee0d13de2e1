"""Benchmark idslab end to end through its public API.

    python3 perfbench/run.py --workload gan-train --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; everything it writes goes under
`.bench_build/perfbench` at the checkout root.  The seed makes the
surrogate corpus (tests/conftest.py:write_surrogate_files, cached per
seed) and the idslab config seed.  Each repetition is one fresh Python
process (worker.py); repetitions run one after another until `--seconds`
is used up, and the run reports medians.  With `--trace 1` untraced and
traced repetitions alternate, and the run reports per-layer metrics and
the tracing overhead instead.  The last line of stdout is the result
object; the line before it holds the machine fingerprint, every
repetition and every failed check.  README.md lists workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from worker import now

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"

CORPUS = {"n_train": 20_000, "n_test": 5_000}
SETUP_SAMPLES = 5  # set-up measurements per untraced run, topped up by set-up-only processes
DEADLINE_S = 170  # children still running then are killed, so a run ends within 180 s


@dataclass(frozen=True)
class Workload:
    setup: tuple  # prerequisite stages, timed as set-up
    timed: tuple  # stages of the timed part
    config: dict  # flat idslab config, dotted keys
    quality: str  # the worker score reported as `quality`
    throughput: str  # the name `throughput_per_s` has on this workload
    policy_seeds: int = 1  # repetition i uses config seed + 1000 * (i % policy_seeds)


DESK_GAN = {"gan.batch_size": 500, "gan.critic_steps": 5, "gan.noise_dim": 128,
            "gan.hidden": [256, 256], "gan.epochs": 1}
DESK_PPO = {"ppo.rollout_length": 2048, "ppo.minibatch": 64, "ppo.update_epochs": 4,
            "ppo.total_timesteps": 49_152, "ppo.eval_every": 10_000}

WORKLOADS = {
    "gan-train": Workload(
        setup=("preprocess",), timed=("gan-train",), quality="gan_kstest",
        config={"mode": "multiclass", "source": "real", **DESK_GAN, "kstest_rows": 2000},
        throughput="gan_steps_per_s",
    ),
    "ppo-train": Workload(
        setup=("preprocess",), timed=("drl-train", "drl-eval"), quality="drl_f1_weighted",
        config={"mode": "multiclass", "source": "real", **DESK_PPO},
        throughput="env_steps_per_s", policy_seeds=5,
    ),
    "run-all": Workload(
        setup=(), timed=("run-all",), quality="fidelity_kstest",
        config={"mode": "multiclass", "gan.epochs": 1, "gan.critic_steps": 1,
                "gan.batch_size": 2000, "ppo.total_timesteps": 2048, "rows": 5000,
                "rows_per_class": 1000, "baseline_rows": 2000},
        throughput="records_per_s",
    ),
}

END_TO_END = {  # name -> unit
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "throughput_per_s": "1/s", "quality": "score",
}


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


# --- inputs ----------------------------------------------------------------------

def file_digest(paths, base):
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(base)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def ensure_corpus(seed, sizes):
    """Surrogate NSL-KDD files for this seed, generated once per checkout."""
    conftest = ROOT / "tests" / "conftest.py"
    key = hashlib.sha256(conftest.read_bytes()).hexdigest()[:12]
    directory = WORK / "corpus" / f"seed{seed}-{sizes['n_train']}x{sizes['n_test']}-{key}"
    generated_s = 0.0
    if not (directory / "KDDTest+.txt").is_file():
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        from conftest import write_surrogate_files

        partial = directory.with_name(directory.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        start = now()
        write_surrogate_files(partial, n_train=sizes["n_train"], n_test=sizes["n_test"], seed=seed)
        generated_s = now() - start
        partial.rename(directory)
    files = [directory / "KDDTrain+.txt", directory / "KDDTest+.txt"]
    return directory, file_digest(files, directory), generated_s


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def fingerprint(src_digest, corpus_digest):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": git_commit(),
        "src_digest": src_digest,
        "corpus_digest": corpus_digest,
    }


# --- repetitions -----------------------------------------------------------------

@dataclass
class Run:
    workload: Workload
    name: str
    config: dict  # flat idslab config plus corpus sizes
    deadline: float  # monotonic time by which every child must have ended
    reps: list = field(default_factory=list)

    def spawn(self, index, phase, traced):
        config = dict(self.config)
        config["seed"] += 1000 * (index % self.workload.policy_seeds)
        out = ROOT / config["out_dir"]
        shutil.rmtree(out, ignore_errors=True)
        result_path = WORK / "rep-result.json"
        result_path.unlink(missing_ok=True)
        stages = self.workload.setup + (self.workload.timed if phase == "full" else ())
        spec = {"phase": phase, "trace": traced, "config": config, "setup": self.workload.setup,
                "timed": self.workload.timed, "result": str(result_path), "spawn_t": now()}
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(5.0, self.deadline - now()),
            )
            error = proc.stderr.strip()[-2000:] if proc.returncode != 0 else ""
        except subprocess.TimeoutExpired:
            error = "repetition timed out"
        if error:
            rep = {"crashed": True, "ops": [
                {"stage": s, "rc": -1, "wall_s": 0.0, "problems": [error]} for s in stages]}
        else:
            rep = json.loads(result_path.read_text())
        rep.update(index=index, phase=phase, traced=traced, seed=config["seed"])
        self.reps.append(rep)
        return rep


def repeat(run, seconds, traced_run):
    """Full repetitions (untraced/traced pairs when tracing) until `seconds` is spent.

    Another unit starts while it would end at most half a unit past `seconds`,
    so the repetition count stays the same when a unit's time varies a little.
    An untraced run makes at least one repetition per policy seed.
    """
    start = now()
    index = 0
    modes = (False, True) if traced_run else (False,)
    needed = 1 if traced_run else run.workload.policy_seeds
    while True:
        unit_start = now()
        reps = [run.spawn(index, "full", traced) for traced in modes]
        index += 1
        took = now() - unit_start
        if any("crashed" in r for r in reps) or now() + took > run.deadline - 20:
            break
        if index >= needed and now() + took / 2 - start > seconds:
            break
    if not traced_run:
        for _ in range(SETUP_SAMPLES - sum("setup_s" in r for r in run.reps)):
            if "crashed" in run.spawn(0, "setup", False):
                break


# --- result ---------------------------------------------------------------------

def cross_checks(run, digest_store):
    """Checks that compare repetitions; problems go on the last timed op."""
    full = [r for r in run.reps if "scores" in r]
    first = {}
    for rep in full:
        expected = first.setdefault(rep["seed"], rep["scores"])
        if rep["scores"] != expected:
            rep["ops"][-1]["problems"].append(
                f"scores {rep['scores']} differ from {expected} of seed {rep['seed']}")
    digests = [r for r in full if "digest" in r]
    if digests:
        digest_store.parent.mkdir(parents=True, exist_ok=True)
        if not digest_store.is_file():
            digest_store.write_text(digests[0]["digest"] + "\n")
        expected = digest_store.read_text().strip()
        for rep in digests:
            if rep["digest"] != expected:
                kind = "traced" if rep["traced"] else "untraced"
                rep["ops"][-1]["problems"].append(
                    f"{kind} run-all bundle digest {rep['digest'][:12]} differs from "
                    f"{expected[:12]} recorded for this seed")


def median_of(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else 0.0


def throughput(run, rep):
    config = run.config
    if run.name == "gan-train":
        return rep["gan_steps"] / rep["stage_wall_s"]["gan-train"]
    if run.name == "ppo-train":
        return config["ppo.total_timesteps"] / rep["stage_wall_s"]["drl-train"]
    records = config["n_train"] + config["n_test"] + config["rows"] + 5 * config["rows_per_class"]
    return records / rep["wall_s"]


def mean_scores(run):
    """Scores averaged over the run's config seeds; empty unless every seed scored."""
    by_seed = {}
    for rep in run.reps:
        if "scores" in rep:
            by_seed.setdefault(rep["seed"], rep["scores"])
    if len(by_seed) < run.workload.policy_seeds:
        return {}
    names = set.intersection(*(set(scores) for scores in by_seed.values()))
    return {name: statistics.fmean(s[name] for s in by_seed.values()) for name in sorted(names)}


def end_to_end(run):
    full = [r for r in run.reps if "scores" in r]
    for rep in full:
        rep["throughput_per_s"] = throughput(run, rep)
    values = {
        "wall_s": median_of(full, "wall_s"),
        "cpu_s": median_of(full, "cpu_s"),
        "setup_s": median_of(run.reps, "setup_s"),
        "peak_rss_mb": median_of(full, "peak_rss_mb"),
        "throughput_per_s": median_of(full, "throughput_per_s"),
        "quality": mean_scores(run).get(run.workload.quality, 0.0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(run):
    untraced = [r for r in run.reps if not r["traced"] and "wall_s" in r]
    traced = [r for r in run.reps if r["traced"] and "layers" in r]
    names = traced[0]["layers"] if traced else {}
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    wall, cpu = median_of(untraced, "wall_s"), median_of(untraced, "cpu_s")
    values.update({
        "timed.wall_s": wall,
        "timed.cpu_s": cpu,
        "timed.cpu_per_wall": cpu / wall if wall else 0.0,
        "trace.wall_s": median_of(traced, "wall_s"),
        "trace.overhead_s": median_of(traced, "wall_s") - wall,
    })
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER.items()}


def measure(name, seed, seconds, traced_run, workload=None, corpus=CORPUS):
    start = now()
    workload = workload or WORKLOADS[name]
    for needed in (ROOT / "src" / "idslab" / "cli.py", ROOT / "tests" / "conftest.py"):
        if not needed.is_file():
            raise SetupError(f"{needed.relative_to(ROOT)} not found: run inside an idslab checkout")
    corpus_dir, corpus_digest, corpus_s = ensure_corpus(seed, corpus)
    compileall.compile_dir(str(ROOT / "src" / "idslab"), quiet=1)
    src = [p for p in (ROOT / "src").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    src_digest = file_digest(src, ROOT)
    config = {
        "train_path": str((corpus_dir / "KDDTrain+.txt").relative_to(ROOT)),
        "test_path": str((corpus_dir / "KDDTest+.txt").relative_to(ROOT)),
        "out_dir": str((WORK / "runs" / name).relative_to(ROOT)),
        "seed": seed,
        "n_train": corpus["n_train"],
        "n_test": corpus["n_test"],
        **workload.config,
    }
    run = Run(workload, name, config, deadline=start + DEADLINE_S)
    repeat(run, seconds, traced_run)
    config_key = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    cross_checks(run, WORK / "digests" / f"{src_digest[:16]}-{config_key[:16]}")

    ops = [op for rep in run.reps for op in rep["ops"]]
    failed = [op for op in ops if op["rc"] != 0 or op["problems"]]
    metrics = per_layer(run) if traced_run else end_to_end(run)
    detail = {
        "workload": name, "seed": seed, "trace": int(traced_run),
        "fingerprint": fingerprint(src_digest, corpus_digest),
        "corpus_generation_s": corpus_s,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in run.reps],
        "problems": [p for op in failed for p in op["problems"]],
    }
    if not traced_run:
        detail[workload.throughput] = metrics["throughput_per_s"]["value"]
        detail.update(mean_scores(run))
    result = {"correct": not failed and bool(ops), "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    return detail, result


PER_LAYER = {f"cli.{stage}.s": "s" for stage in (
    "preprocess", "gan-train", "gan-sample", "gan-eval", "drl-train", "drl-eval",
    "baselines", "report")}
PER_LAYER.update({
    "dataset.parse_kdd.s": "s", "dataset.parse_kdd.records": "count",
    "dataset.fit_transformer.s": "s",
    "dataset.encode_matrix.s": "s", "dataset.encode_matrix.rows": "count",
    "dataset.decode.s": "s", "dataset.decode.rows": "count",
    "dataset.npz_io.s": "s",
    "nn.forward.s": "s", "nn.forward.calls": "count",
    "nn.backward.s": "s", "nn.backward.calls": "count",
    "nn.opt_step.s": "s", "nn.opt_step.calls": "count",
    "nn.clip_global_norm.s": "s", "nn.gflop": "GFLOP", "nn.opt_step.param_mb": "MB",
    "gan.train_gan.self_s": "s", "gan.sample_unconditional.s": "s",
    "gan.sample_conditional.s": "s", "gan.sample_conditional.accept_ratio": "ratio",
    "gan.sample_conditional.kept_rows": "count",
    "gan.sample_conditional.generated_rows": "count",
    "gan.export_synthetic.s": "s", "gan.export_synthetic.rows": "count",
    "gan.checkpoint_io.s": "s",
    "env.step.s": "s", "env.step.calls": "count", "env.reset.calls": "count",
    "env.steps_per_episode": "ratio",
    "agent.act.s": "s", "agent.train.self_s": "s", "agent.compute_gae.s": "s",
    "agent.ppo_update.s": "s", "agent.ppo_update.minibatches": "count",
    "agent.evaluate.s": "s", "agent.rollout_us_per_step": "us",
    "agent.update_us_per_step": "us",
    "baselines.train_logreg.s": "s", "baselines.train_logreg.calls": "count",
    "baselines.train_tree.s": "s", "baselines.train_tree.rows": "count",
    "baselines.train_mlp.s": "s", "baselines.predict.s": "s",
    "synth_eval.records_to_table.s": "s", "synth_eval.cs_test.s": "s",
    "synth_eval.ks_test.s": "s", "synth_eval.detection_score.self_s": "s",
    "trace.spans": "count", "trace.wall_s": "s", "trace.overhead_s": "s",
    "timed.wall_s": "s", "timed.cpu_s": "s", "timed.cpu_per_wall": "ratio",
})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
