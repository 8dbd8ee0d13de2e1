import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from idslab import agent, cli, dataset as ds, env as ids_env, gan, metrics, nn

from conftest import save_old_layout_gan
from paper_surrogate import write_paper_shaped_files

TINY = [
    "--set", "rows=60",
    "--set", "rows_per_class=10",
    "--set", "baseline_rows=200",
    "--set", "gan.epochs=1",
    "--set", "gan.batch_size=50",
    "--set", "gan.noise_dim=16",
    "--set", 'gan.hidden=[32,32]',
    "--set", "gan.critic_steps=1",
    "--set", "ppo.total_timesteps=512",
    "--set", "ppo.rollout_length=128",
    "--set", "ppo.eval_every=256",
    "--set", "env.episode_cap=100",
]


@pytest.fixture()
def workdir(surrogate_data, tmp_path, monkeypatch):
    data_root, _ = surrogate_data
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IDSLAB_DATA_DIR", str(data_root))
    return tmp_path


def run(args):
    return cli.main(args)


def _bundle(out):
    """Every file under `out`, by its path relative to `out`."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestValidation:
    def test_bad_mode(self, workdir):
        assert run(["preprocess", "--set", "mode=nope"]) == cli.EXIT_VALIDATION

    def test_bad_mode_reported_once(self, workdir, capsys):
        assert run(["report", "--set", "mode=null"]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.strip()
        assert err.count("mode") == 1 and ";" not in err, err

    @pytest.mark.parametrize("env, named", [
        ("env=5", "env: section must be an object, got 5"),
        ("env.episode_cap=0", "env: episode_cap must be >= 1"),
    ])
    def test_bad_mode_named_once_beside_a_bad_env_section(self, workdir, capsys, env, named):
        assert run(["report", "--set", "mode=null", "--set", env]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "mode must be binary or multiclass, got None" in err and named in err, err
        assert err.count("mode") == 1, err

    def test_bad_source(self, workdir):
        assert run(["drl-train", "--set", "source=ctgan"]) == cli.EXIT_VALIDATION

    def test_missing_paths(self, workdir, monkeypatch):
        monkeypatch.delenv("IDSLAB_DATA_DIR")
        assert run(["preprocess"]) == cli.EXIT_VALIDATION

    def test_malformed_set(self, workdir):
        assert run(["preprocess", "--set", "rows"]) == cli.EXIT_VALIDATION

    def test_missing_config_file(self, workdir):
        assert run(["preprocess", "--config", "nope.json"]) == cli.EXIT_VALIDATION

    def test_config_file_not_an_object(self, workdir, capsys):
        (workdir / "list.json").write_text("[1]")
        assert run(["preprocess", "--config", "list.json"]) == cli.EXIT_VALIDATION
        assert "list.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "ppo.rollout_length=0",  # would loop forever in drl-train
            "ppo.minibatch=0",
            "ppo.bogus=1",
            "gan.bogus=1",
            "gan.epochs=-1",  # would write an untrained model
            "rows=abc",
            "bogus=1",
            "baselines=5",
            "baselines=[[1]]",  # unhashable: used to exit 4 on the name lookup
            'baselines=[{"a":1}]',
            "ppo.rollout_length=1.5",  # would reach rng.integers(size=...)
            "env.episode_cap=2.5",
            'gan.hidden="x"',
            'gan.learning_rate="fast"',
            "gan.hidden=[0]",
            "ppo.learning_rate=-1.0",  # would train by gradient ascent
            "ppo.value_coef=-1.0",  # would maximise the value error
            "ppo.entropy_coef=-5.0",
            "seed.x=1",  # descends into a number
            "env.episode_cap.x=3",
            "out_dir=5",  # would reach Path() inside a stage
            "out_dir=null",
            "train_path=5",
        ],
    )
    def test_bad_value_fails_before_any_stage(self, workdir, override, capsys):
        assert run(["preprocess", "--set", override]) == cli.EXIT_VALIDATION
        assert override.split("=")[0].split(".")[-1] in capsys.readouterr().err  # names the field
        assert not (workdir / "runs").exists()

    def test_negative_seed_named_before_any_stage(self, workdir, capsys):
        # numpy rejects it only inside gan-train or drl-train, after preprocess ran
        assert run(["run-all", "--set", "seed=-1"]) == cli.EXIT_VALIDATION
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (workdir / "runs").exists()

    def test_too_few_rows_for_detection_folds_fails_before_any_stage(self, workdir, capsys):
        # rows=3 used to train and sample the whole GAN, then fail in gan-eval
        for command in ("gan-eval", "run-all"):
            assert run([command, "--set", "rows=3"]) == cli.EXIT_VALIDATION
            assert "rows must be >= 5, gan-eval's detection folds" in capsys.readouterr().err
            # a non-integer gets the type message alone, not a failed comparison with 5
            assert run([command, "--set", 'rows="abc"']) == cli.EXIT_VALIDATION
            assert capsys.readouterr().err == (
                "validation error: rows must be a positive integer\n")
        assert not (workdir / "runs").exists()
        assert run(["gan-eval", "--set", "rows=5"]) == cli.EXIT_DEPENDENCY  # past validation

    def test_only_dataset_readers_need_dataset_paths(self, workdir, monkeypatch, capsys):
        assert run(["run-all"] + TINY) == cli.EXIT_OK
        monkeypatch.delenv("IDSLAB_DATA_DIR")
        for command in cli.STAGES:
            if command not in ("preprocess", "run-all"):  # read only out_dir's artifacts
                assert run([command] + TINY) == cli.EXIT_OK, command
        capsys.readouterr()
        for command in ("preprocess", "run-all"):
            assert run([command] + TINY) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert "train_path missing (set it or export IDSLAB_DATA_DIR)" in err
            assert "test_path missing (set it or export IDSLAB_DATA_DIR)" in err

    def test_sections_default_to_the_stage_dataclasses(self, workdir):
        assert [cli.DEFAULT_CONFIG[s] for s in ("gan", "ppo", "env")] == [{}, {}, {}]
        config = cli.load_config(cli.build_parser().parse_args(["report"]))
        assert cli._section(config, "gan").epochs == 30
        paper = cli.load_config(cli.build_parser().parse_args(["report", "--paper-scale"]))
        assert cli._section(paper, "gan").epochs == 100
        assert cli._section(paper, "ppo").total_timesteps == 2_000_000

    def test_list_accepted_for_tuple_field(self, workdir):
        assert run(["preprocess", "--set", "gan.hidden=[32,32]"]) == cli.EXIT_OK


class TestDependencies:
    def test_gan_train_needs_preprocess(self, workdir):
        assert run(["gan-train"]) == cli.EXIT_DEPENDENCY

    def test_gan_sample_needs_model(self, workdir):
        assert run(["gan-sample"]) == cli.EXIT_DEPENDENCY

    def test_drl_eval_needs_policy(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        assert run(["drl-eval"]) == cli.EXIT_DEPENDENCY

    def test_report_needs_rows(self, workdir):
        assert run(["report"]) == cli.EXIT_DEPENDENCY

    def test_missing_dataset_file(self, workdir, monkeypatch):
        monkeypatch.setenv("IDSLAB_DATA_DIR", str(workdir / "nowhere"))
        assert run(["preprocess"]) == cli.EXIT_DEPENDENCY

    def test_unknown_attack_name_names_file_and_line(self, workdir, surrogate_data, capsys):
        _, paths = surrogate_data
        lines = paths["KDDTrain+.txt"].read_text().splitlines()[:50]
        for i in (9, 30):
            fields = lines[i].split(",")
            fields[41] = "mystery_attack"
            lines[i] = ",".join(fields)
        bad = workdir / "train.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["preprocess", "--set", f"train_path={bad}"]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"error: {bad}: line 10: attack name 'mystery_attack' is not in "
            "idslab/data/attack_map.csv\n"
        )


    def test_unscalable_training_value_exits_runtime_before_writing(self, workdir, surrogate_data,
                                                                     capsys):
        _, paths = surrogate_data
        lines = paths["KDDTrain+.txt"].read_text().splitlines()[:50]
        fields = lines[6].split(",")
        fields[4] = "nan"  # src_bytes
        lines[6] = ",".join(fields)
        bad = workdir / "train.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["preprocess", "--set", f"train_path={bad}"]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "error: feature src_bytes: cannot scale nan in record 7 (not a finite number)\n"
        )
        assert not (workdir / "runs" / "default" / "transformer.json").exists()

    @pytest.mark.parametrize("which, text", [("test", ""), ("test", "\n \n\n"), ("train", "")],
                             ids=["empty-test", "blank-test", "empty-train"])
    def test_data_file_without_records_fails_before_writing(self, workdir, capsys, which, text):
        # an empty test file used to write a 0-row test.npz, which drl-train read only
        # after training, at its first evaluation
        empty = workdir / f"{which}.txt"
        empty.write_text(text)
        assert run(["preprocess", "--set", f"{which}_path={empty}"]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {empty}: no records\n"
        assert not (workdir / "runs").exists()


class TestStages:
    def test_preprocess_artifacts(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        out = workdir / "runs" / "default"
        for name in ("transformer.json", "train.npz", "test.npz", "class_counts.csv"):
            assert (out / name).exists()
        lines = (out / "class_counts.csv").read_text().strip().splitlines()
        assert lines[0] == "class,symbol,count"
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 2600  # surrogate train + test rows

    def test_config_file_and_set_override(self, workdir):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": "runs/alt"}))
        assert run(["preprocess", "--config", str(cfg)]) == cli.EXIT_OK
        assert (workdir / "runs" / "alt" / "train.npz").exists()
        # --set wins over the config file
        assert (
            run(["preprocess", "--config", str(cfg), "--set", "out_dir=runs/alt2"])
            == cli.EXIT_OK
        )
        assert (workdir / "runs" / "alt2" / "train.npz").exists()

    def test_drl_pipeline_binary(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        assert run(["drl-train"] + TINY) == cli.EXIT_OK
        assert run(["drl-eval"] + TINY) == cli.EXIT_OK
        out = workdir / "runs" / "default"
        assert (out / "policy_binary_real.npz").exists()
        assert (out / "curves" / "binary_real.csv").exists()
        row = (out / "row_drl_binary_real.csv").read_text().strip()
        assert row.startswith("real,drl,")

    @pytest.mark.parametrize("mode, min_f1", [("multiclass", 0.5), ("binary", 0.9)],
                             ids=["multiclass", "binary"])
    def test_default_episodes_do_not_collapse_the_policy(self, workdir, mode, min_f1):
        # one-step episodes, EnvConfig's default: at episode_cap 1000 every multiclass seed
        # here put at least 99.5 % of the test rows on one action, for a macro F1 of 0.14
        assert run(["preprocess"]) == cli.EXIT_OK
        out = workdir / "runs" / "default"
        test_data = ds.EncodedDataset.load(out / "test.npz")
        for seed in range(4):
            args = ["--set", f"mode={mode}", "--set", "ppo.total_timesteps=8192",
                    "--set", f"seed={seed}"]
            assert run(["drl-train"] + args) == cli.EXIT_OK
            policy = agent.PolicyNet.load(out / f"policy_{mode}_real.npz")
            cm = agent.evaluate(policy, test_data, mode)
            share = cm.counts.sum(axis=0) / cm.total
            assert share.max() < 0.99, (seed, share)
            assert metrics.aggregate_f1(cm, "macro") >= min_f1, seed

    def test_drl_train_writes_curves(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        assert run(["drl-train"] + TINY) == cli.EXIT_OK
        curves = workdir / "runs" / "default" / "curves"
        evaluations = (curves / "binary_real.csv").read_text().splitlines()
        assert evaluations[0] == "timestep,accuracy,f1_macro,f1_weighted,f1_class0,f1_class1"
        assert [line.split(",")[0] for line in evaluations[1:]] == ["256", "512"]
        updates = (curves / "binary_real_updates.csv").read_text().splitlines()
        assert updates[0] == (
            "timestep,loss,policy_loss,value_loss,entropy,clip_fraction,approx_kl,"
            "explained_variance"
        )
        assert [line.split(",")[0] for line in updates[1:]] == ["128", "256", "384", "512"]

    def test_gan_eval_reads_artifacts_not_dataset_files(self, workdir, monkeypatch, capsys):
        assert run(["gan-eval"] + TINY) == cli.EXIT_DEPENDENCY
        assert "train.npz; run `preprocess` first" in capsys.readouterr().err
        for stage in ("preprocess", "gan-train", "gan-sample", "gan-eval"):
            assert run([stage] + TINY) == cli.EXIT_OK
        fidelity = workdir / "runs" / "default" / "fidelity.csv"
        expected = fidelity.read_bytes()
        fidelity.unlink()
        (workdir / "empty").mkdir()
        monkeypatch.setenv("IDSLAB_DATA_DIR", str(workdir / "empty"))
        assert run(["gan-eval"] + TINY) == cli.EXIT_OK
        assert fidelity.read_bytes() == expected

    def test_non_finite_loss_exits_runtime_without_checkpoint(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        out = workdir / "runs" / "default"
        train = ds.EncodedDataset.load(out / "train.npz")
        train.matrix[:, 0] = np.nan
        train.save(out / "train.npz")
        assert run(["gan-train"] + TINY) == cli.EXIT_RUNTIME
        assert not (out / "gan_model.npz").exists()

    def test_old_layout_checkpoint_exits_runtime(self, workdir, capsys):
        assert run(["preprocess"]) == cli.EXIT_OK
        assert run(["gan-train"] + TINY) == cli.EXIT_OK
        out = workdir / "runs" / "default"
        save_old_layout_gan(gan.GanModel.load(out / "gan_model.npz"), out / "gan_model.npz")
        capsys.readouterr()
        assert run(["gan-sample"] + TINY) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert "gan_model.npz: generator output / critic input widths are " in err[0]
        assert err[0].endswith("re-run gan-train")
        assert not (out / "synthetic_wgan.csv").exists()

    @pytest.mark.parametrize("command, name, write, message", [
        ("gan-sample", "gan_model.npz", lambda path: agent.PolicyNet(4, 2).save(path),
         "expected nets ['critic', 'generator'], found ['policy', 'trunk', 'value']"),
        ("gan-sample", "gan_model.npz",
         lambda path: ds.EncodedDataset(np.zeros((2, 3)), [0, 1]).save(path),
         "not a checkpoint: no header array"),
        ("gan-sample", "gan_model.npz", lambda path: path.write_text("not numpy\n"),
         "not a checkpoint: no header array"),
        ("drl-eval", "policy_binary_real.npz",
         lambda path: nn.save_checkpoint({"generator": nn.init_net([2, 1], ["linear"], 0),
                                          "critic": nn.init_net([2, 1], ["linear"], 1)}, path),
         "expected nets ['policy', 'trunk', 'value'], found ['critic', 'generator']"),
        ("gan-train", "train.npz",
         lambda path: nn.save_checkpoint({"generator": nn.init_net([2, 1], ["linear"], 0),
                                          "critic": nn.init_net([2, 1], ["linear"], 1)}, path),
         "not an encoded dataset: no matrix array"),
        ("drl-eval", "test.npz", lambda path: path.write_text("not numpy\n"),
         "not an encoded dataset: no matrix array"),
    ], ids=["policy-as-gan", "dataset-as-gan", "junk-as-gan", "gan-as-policy", "gan-as-dataset",
            "junk-as-dataset"])
    def test_wrong_checkpoint_file_is_named(self, workdir, capsys, command, name, write, message):
        assert run(["preprocess"]) == cli.EXIT_OK
        path = Path("runs/default") / name
        write(path)
        capsys.readouterr()
        assert run([command] + TINY) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_debug_prints_traceback_of_runtime_failure(self, workdir, monkeypatch, capsys):
        assert run(["preprocess"]) == cli.EXIT_OK
        out = workdir / "runs" / "default"
        train = ds.EncodedDataset.load(out / "train.npz")
        train.matrix[:, 0] = np.nan
        train.save(out / "train.npz")
        capsys.readouterr()

        monkeypatch.delenv("IDSLAB_DEBUG", raising=False)
        assert run(["gan-train"] + TINY) == cli.EXIT_RUNTIME
        plain = capsys.readouterr().err.splitlines()
        assert len(plain) == 1 and plain[0].startswith("error: ")

        monkeypatch.setenv("IDSLAB_DEBUG", "1")
        assert run(["gan-train"] + TINY) == cli.EXIT_RUNTIME
        debug = capsys.readouterr().err.splitlines()
        assert debug[0] == "Traceback (most recent call last):"
        assert any(line.startswith("FloatingPointError: ") for line in debug)
        assert debug[-1] == plain[0]

    def test_drl_eval_warns_when_one_action_takes_the_test_predictions(self, workdir, capsys):
        assert run(["preprocess"]) == cli.EXIT_OK
        assert run(["drl-train"] + TINY) == cli.EXIT_OK
        path = workdir / "runs" / "default" / "policy_binary_real.npz"
        policy = agent.PolicyNet.load(path)
        for w, b in zip(policy.policy_head.weights, policy.policy_head.biases):
            w[:] = 0.0
            b[:] = [0.0, 1.0]  # action 1 on every record
        policy.save(path)
        capsys.readouterr()
        assert run(["drl-eval"] + TINY) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: drl-eval: action 1 takes 100.0% of the test predictions (binary_real)\n")
        assert captured.out.startswith("drl-eval: accuracy ")

    def test_baselines_rows(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        args = TINY + ["--set", 'baselines=["logreg","tree"]']
        assert run(["baselines"] + args) == cli.EXIT_OK
        out = workdir / "runs" / "default"
        assert (out / "row_logreg_binary_real.csv").exists()
        assert (out / "row_tree_binary_real.csv").exists()
        assert not (out / "row_mlp_binary_real.csv").exists()

    def test_report_collects_rows(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        args = TINY + ["--set", 'baselines=["logreg"]']
        assert run(["baselines"] + args) == cli.EXIT_OK
        assert run(["report"]) == cli.EXIT_OK
        table = (workdir / "runs" / "default" / "performance.csv").read_text()
        lines = table.strip().splitlines()
        assert lines[0].startswith("dataset,model,accuracy,f1_macro,f1_weighted")
        assert len(lines) == 2


@pytest.mark.slow
class TestRunAll:
    def test_bundle_is_byte_identical_across_runs(self, surrogate_data, tmp_path, monkeypatch):
        data_root, _ = surrogate_data
        monkeypatch.setenv("IDSLAB_DATA_DIR", str(data_root))
        digests = []
        for name in ("one", "two"):
            root = tmp_path / name
            root.mkdir()
            monkeypatch.chdir(root)
            assert run(["run-all"] + TINY) == cli.EXIT_OK
            digests.append(_bundle(root / "runs" / "default"))
        assert sorted(digests[0]) == sorted(digests[1])
        for key in digests[0]:
            assert digests[0][key] == digests[1][key], f"artifact differs: {key}"

    def test_run_all_manifest_and_tables(self, surrogate_data, tmp_path, monkeypatch):
        data_root, _ = surrogate_data
        monkeypatch.setenv("IDSLAB_DATA_DIR", str(data_root))
        monkeypatch.chdir(tmp_path)
        assert run(["run-all"] + TINY + ["--set", "mode=multiclass"]) == cli.EXIT_OK
        out = tmp_path / "runs" / "default"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["config"]["mode"] == "multiclass"
        perf = (out / "performance.csv").read_text().strip().splitlines()
        # 3 sources x (drl + 3 baselines) result rows
        assert len(perf) == 1 + 12
        # per_class_f1.csv: the f1_class* columns of performance.csv's drl rows
        header, *rows = (line.split(",") for line in perf)
        f1 = [i for i, name in enumerate(header) if name.startswith("f1_class")]
        drl = [",".join([row[0], *(row[i] for i in f1)]) for row in rows if row[1] == "drl"]
        assert len(f1) == ds.N_CLASSES and len(drl) == len(cli.SOURCES)
        assert (out / "per_class_f1.csv").read_text().splitlines() == [
            "dataset," + ",".join(ds.CLASS_NAMES), *drl]
        fidelity = (out / "fidelity.csv").read_text().splitlines()
        assert fidelity[0] == "dataset,cstest,kstest,kstest_extended,detection"
        rows = [line.split(",") for line in fidelity[1:]]
        assert [row[0] for row in rows] == ["wgan", "wgan-conditional"]
        for row in rows:
            assert len(row) == 5
            for cell in row[1:]:
                assert re.fullmatch(r"\d\.\d{4}", cell) and 0.0 <= float(cell) <= 1.0, row

    def test_paper_shaped_corpus_runs_every_stage(self, tmp_path, monkeypatch):
        # NSL-KDD's shape at 5 %: 70 services, a 3-row U2R class, R2L 0.8 % of train
        write_paper_shaped_files(tmp_path, scale=0.05, seed=0)
        monkeypatch.setenv("IDSLAB_DATA_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert run(["run-all"] + TINY + ["--set", "mode=multiclass"]) == cli.EXIT_OK
        out = tmp_path / "runs" / "default"
        transformer = ds.Transformer.from_json((out / "transformer.json").read_text())
        assert [len(spec.categories) for spec in transformer.specs
                if spec.kind == ds.CATEGORICAL] == [3, 70, 11]
        assert transformer.total_dim == 121
        # name -> rows, cells per row, leading name cells; every other cell a score
        tables = {"fidelity.csv": (2, 5, 1), "performance.csv": (12, 10, 2),
                  "per_class_f1.csv": (3, 6, 1)}
        for name, (n_rows, n_cells, n_names) in tables.items():
            header, *rows = (out / name).read_text().splitlines()
            assert len(header.split(",")) == n_cells and len(rows) == n_rows, name
            for row in rows:
                cells = row.split(",")
                assert len(cells) == n_cells, (name, row)
                assert all(0.0 <= float(cell) <= 1.0 for cell in cells[n_names:]), row

    def test_manifest_records_every_resolved_section_field(self, surrogate_data, tmp_path,
                                                           monkeypatch):
        data_root, _ = surrogate_data
        monkeypatch.setenv("IDSLAB_DATA_DIR", str(data_root))
        monkeypatch.chdir(tmp_path)
        args = TINY + ["--set", "mode=multiclass", "--set", "ppo.gamma=0.9"]
        assert run(["run-all"] + args) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "runs" / "default" / "manifest.json").read_text())
        built = {
            "gan": gan.GanConfig(epochs=1, batch_size=50, noise_dim=16, hidden=(32, 32),
                                 critic_steps=1),
            "ppo": agent.PpoConfig(total_timesteps=512, rollout_length=128, eval_every=256,
                                   gamma=0.9),
            "env": ids_env.EnvConfig(mode="multiclass", episode_cap=100),
        }
        for section, config in built.items():
            fields = {k: v for k, v in dataclasses.asdict(config).items()
                      if k not in ("seed", "mode")}
            assert manifest["config"][section] == json.loads(json.dumps(fields)), section
        assert manifest["config"]["ppo"]["gamma"] == 0.9

    def test_equals_its_stages_run_one_by_one(self, surrogate_data, tmp_path, monkeypatch):
        data_root, _ = surrogate_data
        monkeypatch.setenv("IDSLAB_DATA_DIR", str(data_root))
        args = TINY + ["--set", "mode=multiclass"]
        assert run(["run-all"] + args + ["--set", f"out_dir={tmp_path / 'all'}"]) == cli.EXIT_OK
        args += ["--set", f"out_dir={tmp_path / 'stages'}"]
        for command in cli.STAGES:
            if command in ("drl-train", "drl-eval", "baselines"):  # once per source
                for source in cli.SOURCES:
                    assert run([command] + args + ["--set", f"source={source}"]) == cli.EXIT_OK
            elif command != "run-all":
                assert run([command] + args) == cli.EXIT_OK
        run_all, one_by_one = _bundle(tmp_path / "all"), _bundle(tmp_path / "stages")
        assert sorted(run_all) == sorted([*one_by_one, "manifest.json"])  # only run-all writes it
        for key, data in one_by_one.items():
            assert data == run_all[key], f"artifact differs: {key}"


def _fake_stages(monkeypatch, **stages):
    """Every stage but run-all a no-op, except the ones given."""
    for name in cli.STAGES:
        if name != "run-all":
            monkeypatch.setitem(cli.STAGES, name, stages.get(name, lambda config: None))


def _fails_in_the_child(error, source="real"):
    """A drl-eval that raises `error` on `source`, whose chain runs in a forked worker at
    2 CPUs: `real` beside gan-train and gan-sample, the synthetic ones beside gan-eval."""
    def failing_drl_eval(config):
        if config["source"] == source:
            raise error(f"stage failed in process {os.getpid()}")
    return failing_drl_eval


def _alive(pid):
    """Whether a process runs under this pid: not gone, not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_import_loads_no_multiprocessing():
    # only run-all's fan-out needs it: every other command starts without its import cost
    code = "import sys, idslab.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "False\n"


class TestFanOut:
    @pytest.fixture()
    def two_cpus(self, workdir, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        return workdir

    def test_bundle_does_not_depend_on_the_worker_count(self, surrogate_data, tmp_path,
                                                        monkeypatch):
        data_root, _ = surrogate_data
        monkeypatch.setenv("IDSLAB_DATA_DIR", str(data_root))
        bundles = []
        # one process; the 2-CPU layout; gan-eval and each synthetic chain on its own worker
        for n in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
            root = tmp_path / str(n)
            root.mkdir()
            monkeypatch.chdir(root)
            assert run(["run-all"] + TINY + ["--set", "mode=multiclass"]) == cli.EXIT_OK
            bundles.append(_bundle(root / "runs" / "default"))
        for bundle in bundles[1:]:
            assert sorted(bundle) == sorted(bundles[0])
            for key, data in bundles[0].items():
                assert data == bundle[key], f"artifact differs: {key}"

    def test_each_stage_line_printed_once(self, two_cpus, monkeypatch, capfd):
        # block-buffered, as when stdout is a file: a child must not write the parent's lines
        with open(1, "w", closefd=False) as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert run(["run-all"] + TINY) == cli.EXIT_OK
        lines = capfd.readouterr().out.splitlines()
        assert len(lines) == len(set(lines)), lines
        assert lines[0] == "preprocess: 2000 train / 600 test records"
        assert lines[-2:] == ["report: wrote performance.csv", "run-all: wrote manifest.json"]
        assert (lines.index("gan-train: 40 generator steps")
                < lines.index("gan-sample: 60 unconditional rows, 50 conditional rows"))
        middle = sorted(line.split(":")[0] for line in lines[1:-2])
        # gan-train and gan-sample interleave with the real chain's lines; then gan-eval,
        # and per source drl-train, drl-eval and one line per baseline
        assert middle == sorted(["gan-train", "gan-sample", "gan-eval"]
                                + ["drl-train", "drl-eval"] * 3 + ["baselines"] * 9)

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_each_job_starts_when_its_inputs_exist(self, workdir, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        log, sampled = workdir / "log", workdir / "sampled"
        log.mkdir()
        (workdir / "runs" / "default").mkdir(parents=True)  # for manifest.json

        def record(name):  # which process ran the stage, and whether gan-sample had ended
            def stage(config):
                tag = f"{name} {config['source']}" if name in cli._PER_SOURCE else name
                (log / tag).write_text(f"{os.getpid()} {sampled.exists()}")
            return stage

        def wait_for(tag, stage):  # the real chain must reach `tag` without the GAN stages
            deadline = time.monotonic() + 10
            while not (log / tag).exists():
                if time.monotonic() > deadline:
                    raise RuntimeError(f"the real chain waited for {stage}")
                time.sleep(0.01)

        def gan_train(config):
            wait_for("drl-train real", "gan-train")
            record("gan-train")(config)

        def gan_sample(config):
            wait_for("baselines real", "gan-sample")
            record("gan-sample")(config)
            sampled.write_text("")  # its last act

        _fake_stages(monkeypatch, **{name: record(name) for name in cli.STAGES}
                     | {"gan-train": gan_train, "gan-sample": gan_sample})
        assert run(["run-all"]) == cli.EXIT_OK
        ran = {path.name: path.read_text().split() for path in log.iterdir()}
        assert sorted(ran) == sorted(["gan-eval", "preprocess", "gan-train", "gan-sample",
                                      "report"]
                                     + [f"{name} {source}" for name in cli._PER_SOURCE
                                        for source in cli.SOURCES])
        pid = {tag: int(p) for tag, (p, _) in ran.items()}
        assert pid["gan-train"] == pid["gan-sample"]  # one job: gan-sample reads its model
        chains = {source: {pid[f"{name} {source}"] for name in cli._PER_SOURCE}
                  for source in cli.SOURCES}
        assert all(len(pids) == 1 for pids in chains.values())  # a chain runs in one process
        assert pid["gan-eval"] not in set().union(*chains.values())
        assert chains["real"].isdisjoint(chains["wgan"] | chains["wgan-conditional"])
        if cpus > 2:  # no job waits behind one it does not depend on
            assert chains["wgan"] != chains["wgan-conditional"]
        after_sample = [tag for tag in ran if tag.split()[-1] in cli._SYNTHETIC_FILES]
        assert all(ran[tag][1] == "True" for tag in after_sample + ["gan-eval", "report"]), ran

    @pytest.mark.parametrize("error, code, prefix", [
        (cli.DependencyError, cli.EXIT_DEPENDENCY, "dependency error: "),
        (RuntimeError, cli.EXIT_RUNTIME, "error: "),
    ], ids=["dependency", "runtime"])
    def test_forked_failure_keeps_exit_code_and_message(self, two_cpus, monkeypatch, capfd,
                                                         error, code, prefix):
        reported = []
        _fake_stages(monkeypatch, report=reported.append,
                     **{"drl-eval": _fails_in_the_child(error)})
        monkeypatch.delenv("IDSLAB_DEBUG", raising=False)
        assert run(["run-all"]) == code
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(prefix + "stage failed in process "), err
        assert int(err[0].rsplit(" ", 1)[1]) != os.getpid()  # it failed in the forked child
        assert not reported

    def test_sigint_waits_until_the_child_resets_its_handler(self, two_cpus, monkeypatch):
        masks = two_cpus / "masks"
        masks.mkdir()
        (two_cpus / "runs" / "default").mkdir(parents=True)  # for manifest.json
        child = cli._child

        def recording_child(jobs, parent, conn):  # a Ctrl-C let in here raises in the child
            entry = signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, set())
            child(jobs, parent, conn)
            after = signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, set())
            (masks / str(os.getpid())).write_text(f"{entry} {after}")

        monkeypatch.setattr(cli, "_child", recording_child)
        _fake_stages(monkeypatch)
        assert run(["run-all"]) == cli.EXIT_OK
        # the real chain's worker and the nested fan-out's: blocked on entry, not after
        assert [path.read_text() for path in masks.iterdir()] == ["True False"] * 2
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, set())

    def test_a_worker_that_dies_fails_the_run(self, two_cpus, monkeypatch, capfd):
        test_process = os.getpid()

        def die_in_the_child(config):
            if config["source"] == "real":  # its chain runs in a forked worker
                assert os.getpid() != test_process  # never end the test run itself
                os._exit(7)

        reported = []
        _fake_stages(monkeypatch, report=reported.append, **{"drl-eval": die_in_the_child})
        assert run(["run-all"]) == cli.EXIT_RUNTIME
        assert capfd.readouterr().err == "error: run-all worker died, exit code 7\n"
        assert not reported

    def test_debug_prints_the_forked_jobs_traceback(self, two_cpus, monkeypatch, capfd):
        monkeypatch.setenv("IDSLAB_DEBUG", "1")
        for source in ("real", "wgan"):  # a worker of the first fan-out; one of the nested one
            _fake_stages(monkeypatch, **{"drl-eval": _fails_in_the_child(RuntimeError, source)})
            assert run(["run-all"]) == cli.EXIT_RUNTIME
            err = capfd.readouterr().err.splitlines()
            assert err[0] == "Traceback (most recent call last):"
            frame = next(i for i, line in enumerate(err) if line.endswith(", in failing_drl_eval"))
            assert err[frame + 2].startswith("RuntimeError: stage failed in process ")
            assert err[-1] == "error: " + err[frame + 2].split(": ", 1)[1]
            assert len(err) == frame + 4

    @pytest.mark.skipif(sys.platform != "linux", reason="the child dies with run-all on Linux")
    @pytest.mark.parametrize("interrupt", ["sigkill-run-all", "ctrl-c"])
    def test_no_worker_outlives_run_all(self, tmp_path, interrupt):
        script = """
import os, sys, time
from pathlib import Path
from idslab import cli

os.sched_getaffinity = lambda pid: {0, 1}
root = Path(sys.argv[1])

def wait_for_release(config):
    pid = root / (config["source"] + ".pid")
    pid.with_suffix(".tmp").write_text(str(os.getpid()))
    pid.with_suffix(".tmp").rename(pid)
    deadline = time.monotonic() + 60
    while not (root / "release").exists() and time.monotonic() < deadline:
        time.sleep(0.01)

for name in cli.STAGES:
    if name != "run-all":
        cli.STAGES[name] = lambda config: None
cli.STAGES["drl-train"] = wait_for_release
sys.exit(cli.main(["run-all", "--set", f"out_dir={root / 'out'}",
                   "--set", "train_path=unused", "--set", "test_path=unused"]))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            # the real chain's worker, forked beside gan-train, and the synthetic chains'
            # worker, forked after gan-sample (wgan-conditional waits behind wgan), both started
            pids = [tmp_path / f"{source}.pid" for source in ("real", "wgan")]
            deadline = time.monotonic() + 60
            while not all(pid.exists() for pid in pids):
                assert proc.poll() is None and time.monotonic() < deadline, "no forked job started"
                time.sleep(0.01)
            children = [int(pid.read_text()) for pid in pids]
            assert proc.pid not in children and all(map(_alive, children))
            if interrupt == "ctrl-c":
                os.killpg(proc.pid, signal.SIGINT)  # the terminal signals the whole group
            else:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_alive, children)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(_alive, children)), "a forked worker outlived run-all"
            err = proc.stderr.read()
            if interrupt == "ctrl-c":  # one report, run-all's, as without the fan-out
                assert err.count("Traceback (most recent call last):") == 1, err
                assert err.endswith("KeyboardInterrupt\n"), err
        finally:
            (tmp_path / "release").write_text("")  # lets any survivor end its job
            proc.kill()
            proc.wait()
            proc.stderr.close()
