"""Span tracer that wraps idslab's public functions from outside the package.

`Tracer.install()` replaces module functions and class methods with
wrappers that time each call on `time.perf_counter` and count the work
the call was given.  Spans are aggregated as they close, per name: total
time, self time (total minus the time of spans opened inside it) and call
count.  A call made while a span of the same name is already open is part
of that span, so recursion and a public function calling its sibling
(`parse_kdd_file` -> `parse_kdd`) are counted once.

Wrappers read argument shapes only; they draw no random numbers and
change no argument or result, so a traced run writes the same bundle as
an untraced one.  `layer_metrics()` turns the aggregates into the
per-layer metrics listed in README.md.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

CLI_STAGES = ("preprocess", "gan-train", "gan-sample", "gan-eval",
              "drl-train", "drl-eval", "baselines", "report")


def _rows(batch):
    return 1 if np.ndim(batch) == 1 else int(np.shape(batch)[0])


def _weight_elements(net):
    return sum(w.size for w in net.weights)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = defaultdict(float)
        self.under = defaultdict(float)  # (parent, child) -> child time
        self.spans = 0
        self._open = Counter()
        self._stack = []  # [name, time of spans closed inside it]
        self._patches = []
        self._stages = {}
        self._cli = None
        self.missing = []  # patch points absent from this idslab version

    # --- spans ---------------------------------------------------------------

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer._open[name] += 1
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.calls[name] += 1
                tracer.spans += 1
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent[1] += duration
                    tracer.under[parent[0], name] += duration
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def is_open(self, name):
        return self._open[name] > 0

    # --- patch points --------------------------------------------------------

    def patch(self, owner, attr, name, count=None):
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self):
        from idslab import agent, baselines, cli, dataset, env, gan, nn, synth_eval

        for stage in CLI_STAGES:
            self.patch(cli, "stage_" + stage.replace("-", "_"), f"cli.{stage}")
        self._stages = dict(cli.STAGES)
        for stage in cli.STAGES:
            cli.STAGES[stage] = getattr(cli, "stage_" + stage.replace("-", "_"))
        self._cli = cli

        self.patch(dataset, "parse_kdd_file", "dataset.parse_kdd", _count_records)
        self.patch(dataset, "parse_kdd", "dataset.parse_kdd", _count_records)
        self.patch(dataset, "fit_transformer", "dataset.fit_transformer")
        self.patch(dataset.Transformer, "encode_matrix", "dataset.encode_matrix", _count_encoded)
        self.patch(dataset.Transformer, "decode", "dataset.decode", _count_decoded)
        self.patch(dataset.EncodedDataset, "save", "dataset.npz_io")
        self.patch(dataset.EncodedDataset, "load", "dataset.npz_io")

        self.patch(nn, "forward", "nn.forward", _count_forward)
        self.patch(nn, "backward", "nn.backward", _count_backward)
        self.patch(nn, "opt_step", "nn.opt_step", _count_opt_step)
        self.patch(nn, "clip_global_norm", "nn.clip_global_norm")

        self.patch(gan, "train_gan", "gan.train_gan")
        self.patch(gan, "sample_unconditional", "gan.sample_unconditional")
        self.patch(gan, "sample_conditional", "gan.sample_conditional", _count_kept)
        self.patch(gan, "export_synthetic", "gan.export_synthetic", _count_exported)
        self.patch(gan.GanModel, "save", "gan.checkpoint_io")
        self.patch(gan.GanModel, "load", "gan.checkpoint_io")

        self.patch(env.IdsEnv, "step", "env.step")
        self.patch(env.IdsEnv, "reset", "env.reset")

        self.patch(agent.PolicyNet, "act", "agent.act")
        self.patch(agent, "train", "agent.train")
        self.patch(agent, "compute_gae", "agent.compute_gae")
        self.patch(agent, "ppo_update", "agent.ppo_update", _count_minibatches)
        self.patch(agent, "evaluate", "agent.evaluate")

        # synth_eval binds train_logreg by name, so both bindings are wrapped
        self.patch(baselines, "train_logreg", "baselines.train_logreg")
        self.patch(synth_eval, "train_logreg", "baselines.train_logreg")
        self.patch(baselines, "train_tree", "baselines.train_tree", _count_tree_rows)
        self.patch(baselines, "train_mlp", "baselines.train_mlp")
        self.patch(baselines.Classifier, "predict_proba", "baselines.predict")

        self.patch(synth_eval, "records_to_table", "synth_eval.records_to_table")
        self.patch(synth_eval, "cs_test", "synth_eval.cs_test")
        self.patch(synth_eval, "ks_test", "synth_eval.ks_test")
        self.patch(synth_eval, "ks_test_extended", "synth_eval.ks_test")
        self.patch(synth_eval, "detection_score", "synth_eval.detection_score")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._cli is not None:
            self._cli.STAGES.update(self._stages)

    # --- per-layer metrics ---------------------------------------------------

    def layer_metrics(self):
        t, s, n, c = self.total, self.self_time, self.calls, self.counts
        m = {f"cli.{stage}.s": t[f"cli.{stage}"] for stage in CLI_STAGES}
        m.update({
            "dataset.parse_kdd.s": t["dataset.parse_kdd"],
            "dataset.parse_kdd.records": c["dataset.parse_kdd.records"],
            "dataset.fit_transformer.s": t["dataset.fit_transformer"],
            "dataset.encode_matrix.s": t["dataset.encode_matrix"],
            "dataset.encode_matrix.rows": c["dataset.encode_matrix.rows"],
            "dataset.decode.s": t["dataset.decode"],
            "dataset.decode.rows": c["dataset.decode.rows"],
            "dataset.npz_io.s": t["dataset.npz_io"],
            "nn.forward.s": t["nn.forward"],
            "nn.forward.calls": n["nn.forward"],
            "nn.backward.s": t["nn.backward"],
            "nn.backward.calls": n["nn.backward"],
            "nn.opt_step.s": t["nn.opt_step"],
            "nn.opt_step.calls": n["nn.opt_step"],
            "nn.clip_global_norm.s": t["nn.clip_global_norm"],
            "nn.gflop": c["nn.flop"] / 1e9,
            "nn.opt_step.param_mb": c["nn.opt_step.param_bytes"] / 1e6,
            "gan.train_gan.self_s": s["gan.train_gan"],
            "gan.sample_unconditional.s": t["gan.sample_unconditional"],
            "gan.sample_conditional.s": t["gan.sample_conditional"],
            "gan.sample_conditional.kept_rows": c["gan.sample_conditional.kept_rows"],
            "gan.sample_conditional.generated_rows": c["gan.sample_conditional.generated_rows"],
            "gan.sample_conditional.accept_ratio": _ratio(
                c["gan.sample_conditional.kept_rows"], c["gan.sample_conditional.generated_rows"]),
            "gan.export_synthetic.s": t["gan.export_synthetic"],
            "gan.export_synthetic.rows": c["gan.export_synthetic.rows"],
            "gan.checkpoint_io.s": t["gan.checkpoint_io"],
            "env.step.s": t["env.step"],
            "env.step.calls": n["env.step"],
            "env.reset.calls": n["env.reset"],
            "env.steps_per_episode": _ratio(n["env.step"], n["env.reset"]),
            "agent.act.s": t["agent.act"],
            "agent.train.self_s": s["agent.train"],
            "agent.compute_gae.s": t["agent.compute_gae"],
            "agent.ppo_update.s": t["agent.ppo_update"],
            "agent.ppo_update.minibatches": c["agent.ppo_update.minibatches"],
            "agent.evaluate.s": t["agent.evaluate"],
            "baselines.train_logreg.s": t["baselines.train_logreg"],
            "baselines.train_logreg.calls": n["baselines.train_logreg"],
            "baselines.train_tree.s": t["baselines.train_tree"],
            "baselines.train_tree.rows": c["baselines.train_tree.rows"],
            "baselines.train_mlp.s": t["baselines.train_mlp"],
            "baselines.predict.s": t["baselines.predict"],
            "synth_eval.records_to_table.s": t["synth_eval.records_to_table"],
            "synth_eval.cs_test.s": t["synth_eval.cs_test"],
            "synth_eval.ks_test.s": t["synth_eval.ks_test"],
            "synth_eval.detection_score.self_s": s["synth_eval.detection_score"],
            "trace.spans": self.spans,
        })
        # The rollout is what agent.train spends outside its update,
        # advantage and evaluation calls; both are per env step.
        steps = n["env.step"]
        update_s = self.under["agent.train", "agent.ppo_update"]
        rollout_s = t["agent.train"] - update_s - self.under["agent.train", "agent.compute_gae"] \
            - self.under["agent.train", "agent.evaluate"]
        m["agent.rollout_us_per_step"] = _ratio(rollout_s * 1e6, steps)
        m["agent.update_us_per_step"] = _ratio(update_s * 1e6, steps)
        return m


def _ratio(numerator, base):
    return numerator / base if base else 0.0


# --- work counters; each runs after its span closed, on success ----------------

def _count_records(tracer, args, result):
    tracer.counts["dataset.parse_kdd.records"] += len(result)


def _count_encoded(tracer, args, result):
    tracer.counts["dataset.encode_matrix.rows"] += len(args[1])


def _count_decoded(tracer, args, result):
    tracer.counts["dataset.decode.rows"] += 1


def _count_forward(tracer, args, result):
    rows = _rows(args[1])
    tracer.counts["nn.flop"] += 2.0 * rows * _weight_elements(args[0])
    if tracer.is_open("gan.sample_conditional"):
        tracer.counts["gan.sample_conditional.generated_rows"] += rows


def _count_backward(tracer, args, result):
    rows = _rows(args[1][0][0])  # the first layer's input on the tape
    tracer.counts["nn.flop"] += 4.0 * rows * _weight_elements(args[0])


def _count_opt_step(tracer, args, result):
    net = args[0]
    tracer.counts["nn.opt_step.param_bytes"] += sum(
        w.nbytes + b.nbytes for w, b in zip(net.weights, net.biases)
    )


def _count_kept(tracer, args, result):
    tracer.counts["gan.sample_conditional.kept_rows"] += len(result)


def _count_exported(tracer, args, result):
    tracer.counts["gan.export_synthetic.rows"] += len(args[0])


def _count_minibatches(tracer, args, result):
    buffer, config = args[1], args[2]
    tracer.counts["agent.ppo_update.minibatches"] += config.update_epochs * math.ceil(
        len(buffer) / config.minibatch
    )


def _count_tree_rows(tracer, args, result):
    tracer.counts["baselines.train_tree.rows"] += _rows(args[0])
