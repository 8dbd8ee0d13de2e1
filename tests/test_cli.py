import json

import numpy as np
import pytest

from idslab import cli, dataset as ds

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
        ],
    )
    def test_bad_value_fails_before_any_stage(self, workdir, override):
        assert run(["preprocess", "--set", override]) == cli.EXIT_VALIDATION
        assert not (workdir / "runs").exists()

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

    def test_drl_train_writes_update_log(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        assert run(["drl-train"] + TINY) == cli.EXIT_OK
        lines = (workdir / "runs" / "default" / "curves" / "binary_real_updates.csv").read_text()
        lines = lines.strip().splitlines()
        assert lines[0] == (
            "timestep,loss,policy_loss,value_loss,entropy,clip_fraction,approx_kl,"
            "explained_variance"
        )
        assert [line.split(",")[0] for line in lines[1:]] == ["128", "256", "384", "512"]

    def test_non_finite_loss_exits_runtime_without_checkpoint(self, workdir):
        assert run(["preprocess"]) == cli.EXIT_OK
        out = workdir / "runs" / "default"
        train = ds.EncodedDataset.load(out / "train.npz")
        train.matrix[:, 0] = np.nan
        train.save(out / "train.npz")
        assert run(["gan-train"] + TINY) == cli.EXIT_RUNTIME
        assert not (out / "gan_model.npz").exists()

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
        assert (out / "fidelity.csv").exists()
