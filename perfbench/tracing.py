"""Span tracing from outside the program.

The tracer wraps public callables of the `tactile_force` modules while it is
installed and restores them afterwards; nothing under `src/` knows about it.
Spans are not stored one by one: each ends in an aggregate keyed by
(phase, context, name) holding call count, total time and an item count.
The context is the innermost enclosing span among `CONTEXTS`, which keeps
the layer calls of a training iteration apart from the ones
`evaluate_loss` makes on the validation set.
"""

from __future__ import annotations

import time

CONTEXTS = ("net.training.train", "net.training.evaluate_loss")
TRAIN_CTX = "net.training.train"


def _count_len(result, args) -> int:
    return len(result)


def _count_planar_steps(result, args) -> int:
    return sum(episode.n_steps for episode in result[0])


def _count_first_arg(result, args) -> int:
    return len(args[0])


def _count_rows(result, args) -> int:
    e = args[1]
    return e.shape[0] if getattr(e, "ndim", 1) == 2 else 1


def _count_skipped(result, args) -> int:
    return int(result[2])


class Patches:
    """Attributes replaced on modules or classes, restored last-in first-out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Aggregated spans plus the patches that produce them."""

    def __init__(self):
        self.phase = "setup"
        self.stats: dict[tuple[str, str, str], list] = {}
        self._stack: list[str] = []  # the context of each open span
        self._patches = Patches()
        self.installed = False

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span called `name`."""
        stack, stats = self._stack, self.stats
        is_context = name in CONTEXTS

        def traced(*args, **kwargs):
            ctx = name if is_context else (stack[-1] if stack else "")
            stack.append(ctx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
            key = (self.phase, ctx, name)
            entry = stats.get(key)
            if entry is None:
                entry = stats[key] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += dt
            if count is not None:
                entry[2] += count(result, args)
            return result

        return traced

    def wrap_model(self, model):
        """Put a span around every layer's forward and backward."""
        for layer in model.layers:
            layer.forward = self.wrap(f"net.layers.{layer.name}.fwd", layer.forward)
            layer.backward = self.wrap(f"net.layers.{layer.name}.bwd", layer.backward)
        return model

    # -- queries -----------------------------------------------------------

    def total(self, name: str, ctx: str | None = None, phase: str | None = None) -> tuple[int, float, int]:
        """(calls, seconds, items) of a span summed over matching keys."""
        calls, seconds, items = 0, 0.0, 0
        for (ph, cx, nm), (n, tot, it) in self.stats.items():
            if nm == name and (ctx is None or cx == ctx) and (phase is None or ph == phase):
                calls, seconds, items = calls + n, seconds + tot, items + it
        return calls, seconds, items

    # -- patching ----------------------------------------------------------

    def install(self, tf) -> None:
        """Wrap the traced callables wherever the package's modules hold them.

        `tf` is a namespace of the imported `tactile_force` modules. A module
        that imported a function by name holds its own reference, so every
        module global bound to a traced function is replaced, not only the
        defining one.
        """
        if self.installed:
            return
        traced = {
            tf.synthetic.make_ft_samples: _count_len,
            tf.synthetic.make_planar_trials: _count_planar_steps,
            tf.synthetic.simulate_push: lambda r, a: r.n_steps,
            tf.synthetic.sensor_forward: None,
            tf.sensor.detect_contact: None,
            tf.mechanics.friction_wrench: None,
            tf.mechanics.infer_force_with_friction: None,
            tf.dataset.featurize_voxel: _count_len,
            tf.dataset.read_samples_jsonl: _count_len,
            tf.dataset.write_samples_jsonl: _count_first_arg,
            tf.voxel.encode: None,
            tf.losses.batch_loss_and_grad: _count_skipped,
            tf.training.train: None,
            tf.training.evaluate_loss: None,
            tf.checkpoint.save_checkpoint: None,
            tf.checkpoint.load_checkpoint: None,
            tf.baselines.linear_fit: None,
            tf.baselines.linear_predict: _count_rows,
            tf.metrics.evaluate_pairs: _count_first_arg,
            tf.metrics.summarize_rows: None,
            tf.cli.cmd_simulate: None,
            tf.cli.cmd_infer: None,
            tf.cli.cmd_train: None,
            tf.cli.cmd_eval: None,
        }
        wrappers = {}
        for fn, count in traced.items():
            name = f"{fn.__module__.removeprefix('tactile_force.')}.{fn.__name__}"
            wrappers[fn] = self.wrap(name, fn, count)
        # models built while installed, also inside load_checkpoint, get
        # spans on every layer
        wrappers[tf.network.build_voxel_net] = self._model_hook(tf.network.build_voxel_net)
        by_id = {id(fn): wrapped for fn, wrapped in wrappers.items()}
        for module in tf.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._patches.set(module, attr, by_id[id(value)])
        self._patches.set(tf.training.AdamOptimizer, "step", self.wrap(
            "net.training.adam_step", tf.training.AdamOptimizer.step))
        self._patches.set(tf.training.ArraySamples, "take", self.wrap(
            "net.training.batch_take", tf.training.ArraySamples.take))
        self.installed = True

    def _model_hook(self, build_fn):
        def build(*args, **kwargs):
            return self.wrap_model(build_fn(*args, **kwargs))

        return build

    def uninstall(self) -> None:
        self._patches.restore()
        self.installed = False

