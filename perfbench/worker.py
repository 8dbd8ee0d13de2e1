"""One repetition of a benchmark workload, in a fresh Python process.

    python3 perfbench/worker.py SPEC_JSON

`run.py` starts this once per repetition with the checkout root as the
working directory and `src` on PYTHONPATH.  SPEC_JSON names the stages,
the flat idslab config and the file the result goes to.  The repetition:

1. set-up: imports idslab and runs the prerequisite stages;
2. timed part: runs the workload's stages through `idslab.cli.main`;
3. checks the artifacts and computes the quality scores, untimed.

Phase "setup" stops after step 1.  With "trace" set, the public functions
of each idslab module are wrapped in spans (see spans.py) for step 2 only.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

SYNTHETIC = {"wgan": "synthetic_wgan.csv", "wgan-conditional": "synthetic_wgan_conditional.csv"}
SOURCES = ("real", "wgan", "wgan-conditional")
BASELINES = ("logreg", "tree", "mlp")


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# --- output checks -----------------------------------------------------------
# Each returns a list of problems; an empty list means the artifact is sound.

def check_exists(out, names):
    return [f"missing artifact {name}" for name in names if not (out / name).is_file()]


def check_gan_loss(path, expected_steps):
    if not path.is_file():
        return [f"missing artifact {path.name}"]
    lines = path.read_text().strip().splitlines()
    problems = []
    if lines[:1] != ["step,critic_loss,generator_loss"]:
        problems.append(f"{path.name}: unexpected header")
    if len(lines) - 1 != expected_steps:
        problems.append(f"{path.name}: {len(lines) - 1} steps, expected {expected_steps}")
    for line in lines[1:]:
        try:
            values = [float(cell) for cell in line.split(",")]
        except ValueError:
            problems.append(f"{path.name}: unparsable row {line!r}")
            break
        if len(values) != 3 or not all(math.isfinite(v) for v in values):
            problems.append(f"{path.name}: non-finite or short row {line!r}")
            break
    return problems


def check_row_count(path, expected):
    if not path.is_file():
        return [f"missing artifact {path.name}"]
    with open(path, encoding="utf-8") as fh:
        count = sum(1 for line in fh if line.strip())
    return [] if count == expected else [f"{path.name}: {count} rows, expected {expected}"]


def check_unit_cells(path, first_col, header=True):
    """Every cell from column `first_col` on is a number in [0, 1]."""
    if not path.is_file():
        return [f"missing artifact {path.name}"]
    lines = path.read_text().strip().splitlines()
    rows = lines[1:] if header else lines
    if not rows:
        return [f"{path.name}: no rows"]
    for line in rows:
        for cell in line.split(",")[first_col:]:
            try:
                value = float(cell)
            except ValueError:
                return [f"{path.name}: non-numeric cell {cell!r}"]
            if not 0.0 <= value <= 1.0:
                return [f"{path.name}: cell {cell} outside [0, 1]"]
    return []


def bundle_digest(out):
    """sha256 over every file of a run's out_dir, by relative path."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _tag(config):
    return f"{config['mode']}_{config.get('source', 'real')}"


def expected_gan_steps(config):
    return config["gan.epochs"] * max(1, config["n_train"] // config["gan.batch_size"])


def stage_checks(stage, config):
    """Problems in the artifacts one stage invocation should have written."""
    out = Path(config["out_dir"])
    if stage == "preprocess":
        return check_exists(out, ["transformer.json", "train.npz", "test.npz", "class_counts.csv"])
    if stage == "gan-train":
        return check_exists(out, ["gan_model.npz"]) + check_gan_loss(
            out / "gan_loss.csv", expected_gan_steps(config)
        )
    if stage == "drl-train":
        tag = _tag(config)
        return check_exists(out, [f"policy_{tag}.npz", f"curves/{tag}.csv"])
    if stage == "drl-eval":
        return check_unit_cells(out / f"row_drl_{_tag(config)}.csv", 2, header=False)
    if stage == "run-all":
        return run_all_checks(out, config)
    raise ValueError(f"no checks for stage {stage!r}")


def run_all_checks(out, config):
    mode = config["mode"]
    names = ["transformer.json", "train.npz", "test.npz", "class_counts.csv", "gan_model.npz",
             "fidelity.csv", "performance.csv", "manifest.json"]
    if mode == "multiclass":
        names.append("per_class_f1.csv")
    for source in SOURCES:
        tag = f"{mode}_{source}"
        names += [f"policy_{tag}.npz", f"curves/{tag}.csv", f"row_drl_{tag}.csv"]
        names += [f"row_{b}_{tag}.csv" for b in BASELINES]
    problems = check_exists(out, names)
    problems += check_gan_loss(out / "gan_loss.csv", expected_gan_steps(config))
    problems += check_row_count(out / SYNTHETIC["wgan"], config["rows"])
    problems += check_row_count(out / SYNTHETIC["wgan-conditional"], 5 * config["rows_per_class"])
    problems += check_unit_cells(out / "fidelity.csv", 1)
    problems += check_unit_cells(out / "performance.csv", 2)
    if mode == "multiclass":
        problems += check_unit_cells(out / "per_class_f1.csv", 1)
    return problems


# --- quality scores, computed after the timed part -----------------------------

def scores(config):
    """Quality scores of the run's artifacts, keyed by their reported names."""
    out = Path(config["out_dir"])
    found = {}
    if (out / "gan_model.npz").is_file() and "kstest_rows" in config:
        from idslab import dataset as ds, gan, synth_eval

        model = gan.GanModel.load(out / "gan_model.npz")
        rows = gan.sample_unconditional(model, config["kstest_rows"], seed=config["seed"])
        real = ds.parse_kdd_file(config["train_path"])
        found["gan_kstest"] = synth_eval.ks_test(
            synth_eval.records_to_table(real, ds.labels_for(real)),
            synth_eval.records_to_table([r for r, _ in rows], [label for _, label in rows]),
        )
    row = out / f"row_drl_{_tag(config)}.csv"
    if row.is_file():
        cells = row.read_text().split(",")
        found["drl_f1_macro"], found["drl_f1_weighted"] = float(cells[3]), float(cells[4])
    if (out / "fidelity.csv").is_file():
        for line in (out / "fidelity.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[0] == "wgan":
                found["fidelity_kstest"] = float(cells[2])
    return found


# --- the repetition ------------------------------------------------------------

def cli_args(stage, config):
    argv = [stage]
    for key, value in config.items():
        if key in ("n_train", "n_test", "kstest_rows"):
            continue  # benchmark-side values, not idslab config
        argv += ["--set", f"{key}={json.dumps(value) if not isinstance(value, str) else value}"]
    return argv


def run_stage(cli, stage, config):
    start = now()
    rc = cli.main(cli_args(stage, config))
    return {"stage": stage, "rc": rc, "wall_s": now() - start}


def repetition(spec):
    config = spec["config"]
    from idslab import cli

    ops = [run_stage(cli, stage, config) for stage in spec["setup"]]
    result = {"ops": ops, "setup_s": now() - spec["spawn_t"]}
    if spec["phase"] == "full":
        tracer = None
        if spec["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0, start = cpu_seconds(), now()
        timed = [run_stage(cli, stage, config) for stage in spec["timed"]]
        result["wall_s"] = now() - start
        result["cpu_s"] = cpu_seconds() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["unpatched"] = tracer.missing
        result["stage_wall_s"] = {op["stage"]: op["wall_s"] for op in timed}
        ops += timed
    for op in ops:
        op["problems"] = stage_checks(op["stage"], config) if op["rc"] == 0 else [
            f"exit code {op['rc']}"]
    if spec["phase"] == "full" and not any(op["rc"] for op in ops):
        out = Path(config["out_dir"])
        result["scores"] = scores(config)
        if (out / "gan_loss.csv").is_file():
            result["gan_steps"] = len((out / "gan_loss.csv").read_text().splitlines()) - 1
        if "run-all" in spec["timed"]:
            result["digest"] = bundle_digest(out)
    return result


def main(argv):
    spec = json.loads(argv[1])
    result = repetition(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
