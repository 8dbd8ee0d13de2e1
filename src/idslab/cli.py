"""Experiment runner: preprocess -> GAN -> DRL/baselines -> reports.

Every stage is a subcommand writing artifacts into the configured `out_dir`;
`run-all` runs them all, drl-train, drl-eval and baselines once per source.
After preprocess each job starts when its inputs exist, on forked workers
(`_fan_out`; their console lines may interleave): gan-train, gan-sample, then
gan-eval beside the synthetic chains, runs beside the other sources' chains;
report follows them all.  Outputs are fully determined by (config, seed), not
by the worker count: no timestamps, sorted JSON keys, so rerun bundles are
identical.

Exit codes: 0 success, 2 validation error, 3 missing upstream artifact,
4 runtime failure.  With IDSLAB_DEBUG=1 a runtime failure also prints its
traceback to stderr (a forked job's, as its child formatted it), above the
one-line message.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import dataclasses
import json
import math
import os
import signal
import sys
import traceback
import typing
from pathlib import Path

import numpy as np

from . import agent, baselines, dataset as ds, env as ids_env, gan, metrics, synth_eval

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEPENDENCY = 3
EXIT_RUNTIME = 4

_SYNTHETIC_FILES = {"wgan": "synthetic_wgan.csv", "wgan-conditional": "synthetic_wgan_conditional.csv"}
SOURCES = ("real", *_SYNTHETIC_FILES)
_PER_SOURCE = ("drl-train", "drl-eval", "baselines")  # run-all runs these once per source
BASELINES = {  # name -> fit(X, y, class count, seed)
    "logreg": lambda X, y, k, seed: baselines.train_logreg(X, y, n_classes=k, seed=seed),
    "tree": lambda X, y, k, seed: baselines.train_tree(X, y),
    "mlp": lambda X, y, k, seed: baselines.train_mlp(X, y, seed=seed),
}

DEFAULT_CONFIG = {
    "train_path": None,  # defaults to $IDSLAB_DATA_DIR/KDDTrain+.txt
    "test_path": None,
    "out_dir": "runs/default",
    "mode": "binary",
    "source": "real",
    "seed": 0,
    "rows": 20_000,  # unconditional synthetic rows
    "rows_per_class": 2_000,  # conditional synthetic rows per class
    "gan": {}, "ppo": {}, "env": {},  # overrides of the _SECTIONS dataclasses' defaults
    "baselines": list(BASELINES),
    "baseline_rows": 20_000,  # subsample cap for baseline fits (0 = all rows)
}

PAPER_SCALE = {
    "rows": 200_000,
    "rows_per_class": 20_000,
    "gan": {"epochs": 100},
    "ppo": {"total_timesteps": 2_000_000},
    "baseline_rows": 0,
}


class ValidationError(Exception):
    pass


class DependencyError(Exception):
    pass


def _deep_update(base, extra):
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _parse_set(expr):
    if "=" not in expr:
        raise ValidationError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def load_config(args):
    config = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {path} must hold a JSON object, got {loaded!r}")
        _deep_update(config, loaded)
    if getattr(args, "paper_scale", False):
        _deep_update(config, copy.deepcopy(PAPER_SCALE))
    for expr in args.set or []:
        keys, value = _parse_set(expr)
        node = config
        for depth, key in enumerate(keys[:-1], start=1):
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ValidationError(
                    f"cannot set {'.'.join(keys)}: {'.'.join(keys[:depth])} is not an object"
                )
        node[keys[-1]] = value
    data_dir = os.environ.get("IDSLAB_DATA_DIR")
    for key, name in (("train_path", "KDDTrain+.txt"), ("test_path", "KDDTest+.txt")):
        if config[key] is None and data_dir:
            config[key] = str(Path(data_dir) / name)
    validate_config(config, args.command)
    return config


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _has_type(value, kind):
    """Whether a JSON value fits a dataclass field annotated `kind`."""
    if kind is int:
        return _is_int(value)
    if kind is float:
        return _is_int(value) or (isinstance(value, float) and math.isfinite(value))
    if kind is tuple:
        return isinstance(value, (list, tuple))  # JSON has lists only
    return isinstance(value, kind)


_SECTIONS = {"gan": gan.GanConfig, "ppo": agent.PpoConfig, "env": ids_env.EnvConfig}
_FIXED = ("seed", "mode")  # top-level keys a section's dataclass takes where it has the field


def _section(config, name):
    """The section's dataclass: its field defaults, then the section's values once each
    has its field's type, then the fixed top-level keys."""
    cls, section = _SECTIONS[name], config[name]
    if not isinstance(section, dict):
        raise TypeError(f"section must be an object, got {section!r}")
    types = typing.get_type_hints(cls)
    for key, value in section.items():
        if key in types and not _has_type(value, types[key]):
            kind = "list" if types[key] is tuple else types[key].__name__
            raise TypeError(f"{key} must be {kind}, got {value!r}")
    return cls(**section, **{key: config[key] for key in _FIXED if key in types})


def _resolved(config):
    """Every section as its dataclass resolves it, the fixed keys left out."""
    return {name: {k: v for k, v in dataclasses.asdict(_section(config, name)).items()
                   if k not in _FIXED} for name in _SECTIONS}


def validate_config(config, command):
    problems = []
    unknown_keys = sorted(set(config) - set(DEFAULT_CONFIG))
    if unknown_keys:
        problems.append(f"unknown config keys: {unknown_keys}")
    if config["source"] not in SOURCES:
        problems.append(f"source must be one of {SOURCES}, got {config['source']!r}")
    if not _is_int(config["seed"]) or config["seed"] < 0:
        problems.append(f"seed must be a non-negative integer, got {config['seed']!r}")
    stages = STAGES if command == "run-all" else (command,)
    if not isinstance(config["out_dir"], str) or not config["out_dir"]:
        problems.append(f"out_dir must be a non-empty string, got {config['out_dir']!r}")
    for key in ("train_path", "test_path"):
        if config[key] is not None and not isinstance(config[key], str):
            problems.append(f"{key} must be a string or null, got {config[key]!r}")
        elif "preprocess" in stages and not config[key]:
            problems.append(f"{key} missing (set it or export IDSLAB_DATA_DIR)")
    for key in ("rows", "rows_per_class"):
        if not _is_int(config[key]) or config[key] <= 0:
            problems.append(f"{key} must be a positive integer")
        elif key == "rows" and "gan-eval" in stages and config[key] < synth_eval.DETECTION_FOLDS:
            problems.append(f"rows must be >= {synth_eval.DETECTION_FOLDS}, gan-eval's "
                            f"detection folds; got {config[key]}")
    if not _is_int(config["baseline_rows"]) or config["baseline_rows"] < 0:
        problems.append("baseline_rows must be a non-negative integer")
    if not isinstance(config["baselines"], list):
        problems.append("baselines must be a list")
    elif unknown := [b for b in config["baselines"] if not isinstance(b, str) or b not in BASELINES]:
        problems.append(f"unknown baselines: {unknown}")
    try:
        ds.task_labels(np.arange(ds.N_CLASSES), config["mode"])
    except ValueError as exc:  # named once here; the env section is then checked as binary
        problems.append(str(exc))
        config = config | {"mode": "binary"}
    # build the stage configs exactly as the stages do, so a bad section
    # fails here instead of after the stages before it have run
    for name in _SECTIONS:
        try:
            _section(config, name)
        except (TypeError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
    if problems:
        raise ValidationError("; ".join(problems))


def _out(config):
    out = Path(config["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path, producer):
    if not Path(path).exists():
        raise DependencyError(f"missing artifact {path}; run `{producer}` first")
    return Path(path)


# --- stages ----------------------------------------------------------------

def stage_preprocess(config):
    paths = (config["train_path"], config["test_path"])
    for path in paths:
        if not Path(path).exists():
            raise DependencyError(f"dataset file not found: {path}")
    train_records, test_records = map(ds.parse_kdd_file, paths)
    for path, records in zip(paths, (train_records, test_records)):
        if not len(records):  # checked before anything is written
            raise ValueError(f"{path}: no records")
    out = _out(config)
    train_labels = ds.labels_for(train_records)
    test_labels = ds.labels_for(test_records)
    transformer = ds.fit_transformer(train_records)
    (out / "transformer.json").write_text(transformer.to_json())
    for name, records, labels in (("train", train_records, train_labels),
                                  ("test", test_records, test_labels)):
        ds.EncodedDataset(transformer.encode_matrix(records), labels).save(out / f"{name}.npz")
    counts = np.bincount(np.concatenate([train_labels, test_labels]), minlength=ds.N_CLASSES)
    lines = ["class,symbol,count"]
    for cid, count in enumerate(counts):
        lines.append(f"{ds.CLASS_NAMES[cid]},{ds.CLASS_SYMBOLS[cid]},{count}")
    (out / "class_counts.csv").write_text("\n".join(lines) + "\n")
    print(f"preprocess: {len(train_records)} train / {len(test_records)} test records")


def _load_encoded(config, name):
    out = Path(config["out_dir"])
    return ds.EncodedDataset.load(_require(out / f"{name}.npz", "preprocess"))


def _load_transformer(config):
    out = Path(config["out_dir"])
    return ds.Transformer.from_json(_require(out / "transformer.json", "preprocess").read_text())


def stage_gan_train(config):
    out = _out(config)
    data = _load_encoded(config, "train")
    transformer = _load_transformer(config)
    model, history = gan.train_gan(data, transformer, _section(config, "gan"))
    model.save(out / "gan_model.npz")
    lines = ["step,critic_loss,generator_loss"]
    lines += [f"{s},{c:.6f},{g:.6f}" for s, c, g in history]
    (out / "gan_loss.csv").write_text("\n".join(lines) + "\n")
    print(f"gan-train: {len(history)} generator steps")


def stage_gan_sample(config):
    """Each file is written chunk by chunk as its rows are drawn, into <name>.partial,
    renamed when complete and removed on failure: an interrupted run leaves no file."""
    out = _out(config)
    model = gan.GanModel.load(_require(out / "gan_model.npz", "gan-train"))
    n, seed = config["rows_per_class"], config["seed"]
    draws = {"wgan": [(config["rows"], seed + 100, None)],
             "wgan-conditional": [(n, seed + 200 + c, c) for c in range(ds.N_CLASSES)]}
    for source, samples in draws.items():
        path = out / _SYNTHETIC_FILES[source]
        partial = path.with_name(path.name + ".partial")
        try:
            with open(partial, "w", encoding="utf-8") as fh:
                for args in samples:
                    for records, ids in gan.sample(model, *args):
                        gan.export_synthetic(records, ids, fh)
        except BaseException:  # Ctrl-C too: no partial file stays in out_dir
            partial.unlink(missing_ok=True)
            raise
        partial.replace(path)
    print(f"gan-sample: {config['rows']} unconditional rows, {ds.N_CLASSES * n} conditional rows")


def _load_synthetic(config, source):
    path = _require(Path(config["out_dir"]) / _SYNTHETIC_FILES[source], "gan-sample")
    records = ds.parse_kdd_file(path)
    return records, ds.labels_for(records)


def stage_gan_eval(config):
    out = _out(config)
    # the real rows, capped for tractable detection-classifier folds; decoding gives back
    # the parsed values where each rate spans [0, 1] or is constant, as in NSL-KDD
    train = _load_encoded(config, "train")
    matrix, real_labels = _subsample(train.matrix, train.labels, config["rows"], config["seed"])
    real_records = _load_transformer(config).decode_matrix(matrix)
    real_table = synth_eval.records_to_table(real_records, real_labels)
    lines = ["dataset,cstest,kstest,kstest_extended,detection"]
    for source in _SYNTHETIC_FILES:
        records, labels = _load_synthetic(config, source)
        synth_table = synth_eval.records_to_table(records, labels)
        scores = (
            synth_eval.cs_test(real_table, synth_table),
            synth_eval.ks_test(real_table, synth_table),
            synth_eval.ks_test_extended(real_table, synth_table),
            synth_eval.detection_score(real_records, records, seed=config["seed"]),
        )
        lines.append(",".join([source] + [f"{s:.4f}" for s in scores]))
    (out / "fidelity.csv").write_text("\n".join(lines) + "\n")
    print("gan-eval: wrote fidelity.csv")


def _training_set(config):
    """Encoded training data for the configured source, on the train transformer."""
    source = config["source"]
    if source == "real":
        return _load_encoded(config, "train")
    transformer = _load_transformer(config)
    records, labels = _load_synthetic(config, source)
    return ds.EncodedDataset(transformer.encode_matrix(records), labels)


def _tag(config):
    return f"{config['mode']}_{config['source']}"


def stage_drl_train(config):
    out = _out(config)
    train_data = _training_set(config)
    test_data = _load_encoded(config, "test")
    ppo_config = _section(config, "ppo")
    environment = ids_env.IdsEnv(train_data, _section(config, "env"))
    policy = agent.PolicyNet(
        environment.observation_dim,
        environment.action_count,
        trunk_activation=ppo_config.trunk_activation,
        seed=config["seed"],
    )
    evaluations, updates = agent.train(environment, policy, ppo_config, eval_data=test_data)
    policy.save(out / f"policy_{_tag(config)}.npz")
    curves = out / "curves"
    curves.mkdir(exist_ok=True)
    lines = ["timestep," + metrics.score_header(environment.action_count)]
    lines += [",".join([str(t)] + [f"{v:.6f}" for v in scores]) for t, *scores in evaluations]
    (curves / f"{_tag(config)}.csv").write_text("\n".join(lines) + "\n")
    lines = ["timestep," + ",".join(agent.UPDATE_STATS)]
    lines += [",".join([str(t)] + [f"{stats[k]:.6f}" for k in agent.UPDATE_STATS])
              for t, stats in updates]
    (curves / f"{_tag(config)}_updates.csv").write_text("\n".join(lines) + "\n")
    print(f"drl-train: {ppo_config.total_timesteps} timesteps ({_tag(config)})")


def stage_drl_eval(config):
    out = _out(config)
    test_data = _load_encoded(config, "test")
    policy = agent.PolicyNet.load(
        _require(out / f"policy_{_tag(config)}.npz", "drl-train")
    )
    cm = agent.evaluate(policy, test_data, config["mode"])
    row = metrics.report_row(config["source"], "drl", cm)
    (out / f"row_drl_{_tag(config)}.csv").write_text(row + "\n")
    share = cm.counts.sum(axis=0) / max(cm.total, 1)  # of the test predictions, per action
    if share.max() >= 0.99:  # the policy has collapsed onto one action
        print(f"warning: drl-eval: action {share.argmax()} takes {share.max():.1%} of the "
              f"test predictions ({_tag(config)})", file=sys.stderr)
    print(f"drl-eval: accuracy {metrics.accuracy(cm):.4f} ({_tag(config)})")


def _subsample(X, y, cap, seed):
    """At most `cap` rows of the matrix X and of its labels y, drawn without replacement."""
    if cap and len(X) > cap:
        idx = np.random.default_rng(seed).choice(len(X), size=cap, replace=False)
        return X[idx], y[idx]
    return X, y


def stage_baselines(config):
    out = _out(config)
    train_data = _training_set(config)
    test_data = _load_encoded(config, "test")
    y_train, k = ds.task_labels(train_data.labels, config["mode"])
    y_test, _ = ds.task_labels(test_data.labels, config["mode"])
    X_train, y_train = _subsample(
        train_data.matrix, y_train, config["baseline_rows"], config["seed"]
    )
    for name in config["baselines"]:
        clf = BASELINES[name](X_train, y_train, k, config["seed"])
        pred = clf.predict(test_data.matrix)
        cm = metrics.confusion(pred, y_test, k)
        row = metrics.report_row(config["source"], name, cm)
        (out / f"row_{name}_{_tag(config)}.csv").write_text(row + "\n")
        print(f"baselines: {name} accuracy {metrics.accuracy(cm):.4f} ({_tag(config)})")


def stage_report(config):
    out = _out(config)
    _, k = ds.task_labels(np.arange(ds.N_CLASSES), config["mode"])
    header = "dataset,model," + metrics.score_header(k)
    rows = []
    for path in sorted(out.glob(f"row_*_{config['mode']}_*.csv")):
        rows.append(path.read_text().strip())
    if not rows:
        raise DependencyError("no result rows found; run drl-eval / baselines first")
    (out / "performance.csv").write_text("\n".join([header] + rows) + "\n")
    # Table VII layout: per-class F1 for DRL rows, multiclass only
    if config["mode"] == "multiclass":
        lines = ["dataset," + ",".join(ds.CLASS_NAMES)]
        for cells in (dict(zip(header.split(","), row.split(","))) for row in rows):
            if cells["model"] == "drl":
                f1 = [v for name, v in cells.items() if name.startswith("f1_class")]
                lines.append(",".join([cells["dataset"], *f1]))
        (out / "per_class_f1.csv").write_text("\n".join(lines) + "\n")
    print("report: wrote performance.csv")


def _run_jobs(jobs):
    """Run each job's (stage, config) steps in order; the first failure, or None."""
    try:
        for stage, config in (step for job in jobs for step in job):
            stage(config)
    except Exception as exc:  # noqa: BLE001 - raised again by _fan_out
        if not hasattr(exc, "job_traceback"):  # else a nested fan-out's job formatted it
            exc.job_traceback = traceback.format_exc()  # travels with it out of a child
        return exc


def _child(jobs, parent, conn):
    """A forked worker: runs its jobs and sends back None or the first failure."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)  # Ctrl-C: run-all alone reports it
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})  # blocked by _fan_out
    if sys.platform == "linux":  # PR_SET_PDEATHSIG (1): killed with run-all
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)
    if os.getppid() == parent:  # else run-all died before the call above
        conn.send(_run_jobs(jobs))


def _fan_out(jobs):
    """Job i runs on worker min(i, n - 1) of n = min(len(jobs), CPUs), a layout fixed by
    the job list and the CPU count: list the longest first, each of the first n - 1 has a
    worker, the last worker runs the rest in order.  Worker 0 is this process, so job 0
    may fan out again (a forked child is a daemon and may not); the rest are forked."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    n = min(len(jobs), len(affinity(0)) if affinity else os.cpu_count() or 1)
    shares = [[job] for job in jobs[:n - 1]] + [jobs[n - 1:]]
    children = []
    if n > 1:
        import multiprocessing  # here, not at module load: only run-all forks

        fork = multiprocessing.get_context("fork")
        for share in shares[1:]:
            reader, writer = fork.Pipe(duplex=False)
            child = fork.Process(target=_child, args=(share, os.getpid(), writer),
                                 daemon=True)  # terminated when run-all exits early
            # SIGINT waits until the child has reset its handler: no traceback of its own
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                child.start()  # flushes stdout and stderr first, so no line is written twice
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            writer.close()
            children.append((child, reader))
    failures = [_run_jobs(shares[0])]
    for child, reader in children:
        with reader:
            try:
                failures.append(reader.recv())
            except EOFError:  # the child died before it could send
                child.join()
                failures.append(RuntimeError(f"run-all worker died, exit code {child.exitcode}"))
        child.join()
    if failure := next(filter(None, failures), None):
        raise failure


def stage_run_all(config):
    chains = {source: [(STAGES[name], config | {"source": source}) for name in _PER_SOURCE]
              for source in SOURCES}  # drl-train -> drl-eval -> baselines
    STAGES["preprocess"](config)
    after_sample = [[(STAGES["gan-eval"], config)], *(chains.pop(s) for s in _SYNTHETIC_FILES)]
    _fan_out([[(STAGES["gan-train"], config), (STAGES["gan-sample"], config),
               (lambda c: _fan_out(after_sample), config)], *chains.values()])
    STAGES["report"](config)
    manifest = {
        "config": config | _resolved(config),
        "seed": config["seed"],
        "idslab_version": _version(),
    }
    (Path(config["out_dir"]) / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print("run-all: wrote manifest.json")


def _version():
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("idslab")
    except PackageNotFoundError:
        return "0.0.0+local"


STAGES = {
    "preprocess": stage_preprocess,
    "gan-train": stage_gan_train,
    "gan-sample": stage_gan_sample,
    "gan-eval": stage_gan_eval,
    "drl-train": stage_drl_train,
    "drl-eval": stage_drl_eval,
    "baselines": stage_baselines,
    "report": stage_report,
    "run-all": stage_run_all,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idslab",
        description="GAN-augmented DRL intrusion-detection experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (defaults otherwise)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config field, e.g. --set ppo.total_timesteps=5000",
        )
        p.add_argument(
            "--paper-scale",
            action="store_true",
            help="full-scale settings, applied after --config and before --set: "
                 + json.dumps(PAPER_SCALE),
        )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        STAGES[args.command](load_config(args))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        if os.environ.get("IDSLAB_DEBUG") == "1":
            sys.stderr.write(getattr(exc, "job_traceback", None) or traceback.format_exc())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
