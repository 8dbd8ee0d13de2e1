import json
import re

import numpy as np
import pytest

from idslab import cli, dataset as ds, gan

from conftest import save_old_layout_gan

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


class TestValidation:
    def test_bad_mode(self, workdir):
        assert run(["preprocess", "--set", "mode=nope"]) == cli.EXIT_VALIDATION

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
        ],
    )
    def test_bad_value_fails_before_any_stage(self, workdir, override):
        assert run(["preprocess", "--set", override]) == cli.EXIT_VALIDATION
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
        assert not (workdir / "runs").exists()
        assert run(["gan-eval", "--set", "rows=5"]) == cli.EXIT_DEPENDENCY  # past validation

    def test_only_dataset_readers_need_dataset_paths(self, workdir, monkeypatch, capsys):
        assert run(["run-all"] + TINY) == cli.EXIT_OK
        monkeypatch.delenv("IDSLAB_DATA_DIR")
        for command in ("report", "gan-eval"):  # read only out_dir's artifacts
            assert run([command] + TINY) == cli.EXIT_OK
        capsys.readouterr()
        for command in ("preprocess", "run-all"):
            assert run([command] + TINY) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert "train_path missing (set it or export IDSLAB_DATA_DIR)" in err
            assert "test_path missing (set it or export IDSLAB_DATA_DIR)" in err

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
            out = root / "runs" / "default"
            bundle = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
            digests.append(bundle)
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
        assert (out / "per_class_f1.csv").exists()
        fidelity = (out / "fidelity.csv").read_text().splitlines()
        assert fidelity[0] == "dataset,cstest,kstest,kstest_extended,detection"
        rows = [line.split(",") for line in fidelity[1:]]
        assert [row[0] for row in rows] == ["wgan", "wgan-conditional"]
        for row in rows:
            assert len(row) == 5
            for cell in row[1:]:
                assert re.fullmatch(r"\d\.\d{4}", cell) and 0.0 <= float(cell) <= 1.0, row
