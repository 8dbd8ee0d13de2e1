"""Toy-budget self-check of the benchmark.

    python3 perfbench/smoke.py

Runs every workload untraced and traced on a small corpus with tiny model
budgets, and checks that each reports all its metrics with no failed
operation.  Then corrupts a copy of a run-all bundle artifact by artifact
and checks that the output checks report each corruption, that a changed
bundle fails the per-seed digest check, and that a directory holding only
the benchmark exits non-zero without a result.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run
import worker

TOY_CORPUS = {"n_train": 2000, "n_test": 600}
TOY_GAN = {"gan.batch_size": 50, "gan.critic_steps": 1, "gan.noise_dim": 16, "gan.hidden": [32, 32]}
TOY_PPO = {"ppo.total_timesteps": 512, "ppo.rollout_length": 128, "ppo.eval_every": 256,
           "env.episode_cap": 100}
TOY = {
    "gan-train": {**TOY_GAN, "kstest_rows": 200},
    "ppo-train": TOY_PPO,
    "run-all": {**TOY_GAN, **TOY_PPO, "rows": 60, "rows_per_class": 10, "baseline_rows": 200},
}
SEED = 7

failures = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def toy_workload(name):
    workload = run.WORKLOADS[name]
    return replace(workload, config={**workload.config, **TOY[name]})


def check_runs():
    for name in run.WORKLOADS:
        for traced in (False, True):
            detail, result = run.measure(name, SEED, 0.1, traced, toy_workload(name), TOY_CORPUS)
            expected = run.PER_LAYER if traced else run.END_TO_END
            label = f"{name} trace={int(traced)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: {result['attempted']} operations, {result['failed']} failed "
                   f"{detail['problems'][:3]}")
            expect(list(result["metrics"]) == list(expected), f"{label}: every metric reported")
            if not traced:
                zero = [k for k, v in result["metrics"].items() if v["value"] <= 0]
                expect(not zero, f"{label}: end-to-end metrics positive {zero}")


def check_corruption():
    config = {"out_dir": str(run.WORK / "smoke-bundle"), "n_train": TOY_CORPUS["n_train"],
              "seed": SEED, **toy_workload("run-all").config}
    source = run.WORK / "runs" / "run-all"
    out = Path(config["out_dir"])

    def fresh():
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(source, out)

    fresh()
    expect(worker.run_all_checks(out, config) == [], "intact run-all bundle passes its checks")
    good = worker.bundle_digest(out)

    def corrupt(path, edit, what):
        fresh()
        lines = (out / path).read_text().splitlines()
        (out / path).write_text("\n".join(edit(lines)) + "\n")
        problems = worker.run_all_checks(out, config)
        expect(bool(problems), f"check fires on {what}: {problems[:1]}")

    corrupt("gan_loss.csv", lambda ls: ls[:1] + ["0,nan,0.1"] + ls[2:], "a NaN loss")
    corrupt("gan_loss.csv", lambda ls: ls[:-1], "a missing generator step")
    corrupt("synthetic_wgan.csv", lambda ls: ls[:-1], "a short synthetic CSV")
    corrupt("synthetic_wgan_conditional.csv", lambda ls: ls + ls[-1:], "a long conditional CSV")
    corrupt("fidelity.csv", lambda ls: ls[:1] + [ls[1].rsplit(",", 1)[0] + ",1.5"] + ls[2:],
            "a fidelity cell above 1")
    corrupt("performance.csv", lambda ls: ls[:1] + [ls[1].replace(",0.", ",-0.", 1)] + ls[2:],
            "a negative F1 cell")
    fresh()
    (out / "per_class_f1.csv").unlink()
    expect(bool(worker.run_all_checks(out, config)), "check fires on a missing artifact")

    fresh()
    (out / "class_counts.csv").write_text((out / "class_counts.csv").read_text() + "\n")
    store = run.WORK / "smoke-digest"
    store.write_text(good + "\n")
    bench = run.Run(toy_workload("run-all"), "run-all", config, deadline=0.0)
    bench.reps = [{"phase": "full", "scores": {}, "seed": SEED, "traced": True,
                   "digest": worker.bundle_digest(out), "ops": [{"problems": []}]}]
    run.cross_checks(bench, store)
    expect(bool(bench.reps[0]["ops"][0]["problems"]), "digest check fires on a changed bundle")
    shutil.rmtree(out)
    store.unlink()


def check_bare_directory():
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gan-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory exits {proc.returncode} without a result")
    shutil.rmtree(bare)


def check_manifest():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json names the workloads run.py runs")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per-layer metrics match run.py")


def main():
    check_manifest()
    check_runs()
    check_corruption()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
