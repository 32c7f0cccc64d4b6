"""The arena DP-SGD step against the out-of-place reference step, byte for byte.

Each case trains two copies of one seeded network beside each other on the
same batches: one with :class:`repro.privacy.DPSGD` over an arena-packed Adam,
one with the reference step of ``dp_step_reference.py``.  After every
step the parameters, the moments, the step counts and the noise generator's
state must be equal as bytes.  The schedule includes noise-only steps (an
empty Poisson draw), and the larger network's arena spans several blocks
with a partial last one.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from dp_step_reference import ReferenceAdam, ReferenceDPSGD
from repro.engine.checkpoint import load_checkpoint, restore_trainer_state, save_checkpoint
from repro.nn import MLP, Adam, Tensor, grad_sample_mode
from repro.nn.optim import BLOCK
from repro.privacy import DPSGD
from repro.utils.rng import dump_generator_state

#: ``MLP`` shapes: one smaller than a block, one of 42,630 parameters.
SHAPES = {"one_block": (6, (16,), 5), "partial_blocks": (40, (600,), 30)}
#: ``None`` is the noise-only step of an empty draw.
SCHEDULE = ["batch", "batch", None, "batch", "batch", None, "batch"]
BATCH = 12
DP = dict(noise_multiplier=1.1, max_grad_norm=0.8, expected_batch_size=BATCH)


class Net(MLP):
    """An MLP that a training checkpoint can describe."""

    def get_config(self):
        return {}


def make_data(shape, seed=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(64, shape[0]))
    y = rng.uniform(size=(64, shape[2]))
    batches = [rng.choice(64, BATCH, replace=False) if kind else None for kind in SCHEDULE]
    return X, y, batches


class Run:
    """One seeded network trained by the arena step or by the reference step."""

    def __init__(self, shape, reference=False, init_seed=0, noise_seed=11):
        self.net = Net(*shape, rng=init_seed)
        self.params = list(self.net.parameters())
        self.rng = np.random.default_rng(noise_seed)
        if reference:
            base = ReferenceAdam(self.params, lr=0.01)
            self.opt = ReferenceDPSGD(self.params, **DP, base_optimizer=base, rng=self.rng)
        else:
            base = Adam(self.params, lr=0.01)
            self.opt = DPSGD(self.params, **DP, base_optimizer=base, rng=self.rng)
        self.trainer = SimpleNamespace(
            model=self.net, optimizer=self.opt, rng=self.rng, callbacks=[], global_step=0, epoch=0
        )

    def loss(self, X, y, index):
        """The batch's summed squared error, a sum of per-example terms."""
        return ((self.net(Tensor(X[index])) - y[index]) ** 2).sum()

    def step(self, X, y, index):
        if index is None:
            self.opt.noise_step()
        else:
            with grad_sample_mode():
                self.loss(X, y, index).backward()
            self.opt.step()
        self.trainer.global_step += 1

    def snapshot(self) -> dict:
        """Parameters, optimizer state and generator state, as bytes."""
        state = {f"param.{i}": p.data for i, p in enumerate(self.params)}
        state.update(self.opt.state_dict())
        state["rng"] = np.asarray(dump_generator_state(self.rng))
        return {key: (value.shape, value.tobytes()) for key, value in state.items()}


def assert_same_bytes(new: Run, reference: Run, step: int):
    got, expected = new.snapshot(), reference.snapshot()
    assert sorted(got) == sorted(expected)
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert not mismatched, f"step {step}: {mismatched} differ from the reference"


def test_the_larger_arena_ends_in_a_partial_block():
    net = Net(*SHAPES["partial_blocks"], rng=0)
    size = net.num_parameters()
    assert size > BLOCK and size % BLOCK


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_step_matches_the_reference(shape):
    X, y, batches = make_data(SHAPES[shape])
    new, reference = Run(SHAPES[shape]), Run(SHAPES[shape], reference=True)
    assert_same_bytes(new, reference, 0)
    for step, index in enumerate(batches, start=1):
        new.step(X, y, index)
        reference.step(X, y, index)
        assert_same_bytes(new, reference, step)
    assert new.opt.steps_taken == len(SCHEDULE)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("writer", ["arena", "reference"])
def test_checkpoint_restore_mid_run_matches_the_reference(tmp_path, shape, writer):
    """Save after three steps, restore into a fresh arena run, finish beside
    an uninterrupted reference run.  ``writer="reference"`` restores state
    that the reference optimizers wrote."""
    X, y, batches = make_data(SHAPES[shape])
    reference = Run(SHAPES[shape], reference=True)
    first = Run(SHAPES[shape], reference=writer == "reference")
    for index in batches[:3]:
        reference.step(X, y, index)
        first.step(X, y, index)
    save_checkpoint(tmp_path / "ckpt", first.trainer, first.net, next_epoch=1)

    # A different init and noise seed: everything must come from the checkpoint.
    resumed = Run(SHAPES[shape], init_seed=5, noise_seed=99)
    restore_trainer_state(resumed.trainer, load_checkpoint(tmp_path / "ckpt"))
    resumed.opt.base_optimizer.check_arena()  # restored in place, not rebound
    assert_same_bytes(resumed, reference, 3)
    for step, index in enumerate(batches[3:], start=4):
        resumed.step(X, y, index)
        reference.step(X, y, index)
        assert_same_bytes(resumed, reference, step)


def test_rebinding_a_parameter_makes_the_next_step_raise():
    X, y, batches = make_data(SHAPES["one_block"])
    run = Run(SHAPES["one_block"])
    run.step(X, y, batches[0])
    before = run.snapshot()
    run.params[1].data = run.params[1].data.copy()
    with grad_sample_mode():
        run.loss(X, y, batches[1]).backward()
    with pytest.raises(RuntimeError, match="parameter 1 .* rebound out of the"):
        run.opt.step()
    with pytest.raises(RuntimeError, match="rebound"):
        run.opt.noise_step()
    with pytest.raises(RuntimeError, match="rebound"):
        run.opt.base_optimizer.apply_gradients(run.opt.base_optimizer.grad_views)
    # Nothing moved: not the noise stream, the step count or another parameter.
    assert run.snapshot() == before
