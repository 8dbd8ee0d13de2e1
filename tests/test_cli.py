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

from idslab import agent, cli, dataset as ds, gan

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
        assert (out / "per_class_f1.csv").exists()
        fidelity = (out / "fidelity.csv").read_text().splitlines()
        assert fidelity[0] == "dataset,cstest,kstest,kstest_extended,detection"
        rows = [line.split(",") for line in fidelity[1:]]
        assert [row[0] for row in rows] == ["wgan", "wgan-conditional"]
        for row in rows:
            assert len(row) == 5
            for cell in row[1:]:
                assert re.fullmatch(r"\d\.\d{4}", cell) and 0.0 <= float(cell) <= 1.0, row

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


def _fails_in_the_child(error):
    """A drl-eval that raises `error` on the real source: job 1 of 4, the forked worker's."""
    def failing_drl_eval(config):
        if config["source"] == "real":
            raise error(f"stage failed in process {os.getpid()}")
    return failing_drl_eval


def _alive(pid):
    """Whether a process runs under this pid: not gone, not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


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
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            root = tmp_path / str(len(cpus))
            root.mkdir()
            monkeypatch.chdir(root)
            assert run(["run-all"] + TINY + ["--set", "mode=multiclass"]) == cli.EXIT_OK
            bundles.append(_bundle(root / "runs" / "default"))
        assert sorted(bundles[0]) == sorted(bundles[1])
        for key, data in bundles[0].items():
            assert data == bundles[1][key], f"artifact differs: {key}"

    def test_each_stage_line_printed_once(self, two_cpus, monkeypatch, capfd):
        # block-buffered, as when stdout is a file: a child must not write the parent's lines
        with open(1, "w", closefd=False) as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert run(["run-all"] + TINY) == cli.EXIT_OK
        lines = capfd.readouterr().out.splitlines()
        assert len(lines) == len(set(lines)), lines
        assert lines[:3] == ["preprocess: 2000 train / 600 test records",
                             "gan-train: 40 generator steps",
                             "gan-sample: 60 unconditional rows, 50 conditional rows"]
        assert lines[-2:] == ["report: wrote performance.csv", "run-all: wrote manifest.json"]
        middle = sorted(line.split(":")[0] for line in lines[3:-2])
        # gan-eval, then per source drl-train, drl-eval and one line per baseline
        assert middle == sorted(["gan-eval"] + ["drl-train", "drl-eval"] * 3 + ["baselines"] * 9)

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

    def test_a_worker_that_dies_fails_the_run(self, two_cpus, monkeypatch, capfd):
        test_process = os.getpid()

        def die_in_the_child(config):
            if config["source"] == "real":  # job 1 of 4: the forked worker's
                assert os.getpid() != test_process  # never end the test run itself
                os._exit(7)

        reported = []
        _fake_stages(monkeypatch, report=reported.append, **{"drl-eval": die_in_the_child})
        assert run(["run-all"]) == cli.EXIT_RUNTIME
        assert capfd.readouterr().err == "error: run-all worker died, exit code 7\n"
        assert not reported

    def test_debug_prints_the_forked_jobs_traceback(self, two_cpus, monkeypatch, capfd):
        _fake_stages(monkeypatch, **{"drl-eval": _fails_in_the_child(RuntimeError)})
        monkeypatch.setenv("IDSLAB_DEBUG", "1")
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
    if config["source"] == "real":  # job 1 of 4: the forked worker's
        (root / "child.pid.tmp").write_text(str(os.getpid()))
        (root / "child.pid.tmp").rename(root / "child.pid")
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
            deadline = time.monotonic() + 60
            while not (tmp_path / "child.pid").exists():
                assert proc.poll() is None and time.monotonic() < deadline, "no forked job started"
                time.sleep(0.01)
            child = int((tmp_path / "child.pid").read_text())
            assert child != proc.pid and _alive(child)
            if interrupt == "ctrl-c":
                os.killpg(proc.pid, signal.SIGINT)  # the terminal signals the whole group
            else:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while _alive(child) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not _alive(child), "the forked worker outlived run-all"
            err = proc.stderr.read()
            if interrupt == "ctrl-c":  # one report, run-all's, as without the fan-out
                assert err.count("Traceback (most recent call last):") == 1, err
                assert err.endswith("KeyboardInterrupt\n"), err
        finally:
            (tmp_path / "release").write_text("")  # lets any survivor end its job
            proc.kill()
            proc.wait()
            proc.stderr.close()
