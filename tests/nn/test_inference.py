"""Tests for the compiled tape-free forward (:mod:`repro.nn.inference`).

Sampling has no tape fallback: a module the fused path cannot reproduce
raises :class:`CompileError`, and a module that compiles must return the
autograd forward's rows, clipped to ``[0, 1]`` like a Bernoulli decoder's,
bit for bit.
"""

import numpy as np
import pytest

from repro.models.base import decode_rows
from repro.nn import CompileError, Linear, Module, ReLU, Sequential, Sigmoid, Tensor, no_grad
from repro.nn.inference import compile_inference, compiled_plan
from repro.obs import MetricsRegistry, set_registry


class Square(Module):
    """An op the fused path has no kernel for."""

    def forward(self, x):
        return x * x


def tape_forward(module, x):
    with no_grad():
        return np.clip(module(Tensor(x)).data, 0.0, 1.0)


class TestCompileErrors:
    def test_module_without_a_kernel_is_refused(self):
        with pytest.raises(CompileError, match="cannot fuse Square"):
            compile_inference(Sequential(Linear(3, 4, rng=0), Square()))

    def test_module_without_ops_is_refused(self):
        with pytest.raises(CompileError, match="no ops"):
            compile_inference(Sequential())


class TestCompiledPlan:
    def test_a_failed_compile_is_not_cached(self):
        net = Sequential(Linear(3, 4, rng=0), Square(), Linear(4, 2, rng=1), Sigmoid())
        for _ in range(2):
            with pytest.raises(CompileError):
                compiled_plan(net)
        net.layers[1] = ReLU()
        plan = compiled_plan(net)
        assert compiled_plan(net) is plan
        x = np.random.default_rng(0).normal(size=(7, 3))
        assert plan(x).tobytes() == tape_forward(net, x).tobytes()

    def test_decode_rows_raises_instead_of_decoding_on_the_tape(self):
        decoder = Sequential(Linear(2, 3, rng=0), Square())
        with pytest.raises(CompileError, match="cannot fuse Square"):
            decode_rows(decoder, np.zeros((4, 2)))

    def test_every_plan_ends_in_the_bernoulli_clip(self):
        net = Linear(3, 4, rng=0)
        x = 10.0 * np.random.default_rng(1).normal(size=(6, 3))
        rows = compile_inference(net)(x)
        assert rows.min() == 0.0 and rows.max() == 1.0
        assert rows.tobytes() == tape_forward(net, x).tobytes()


def test_fused_counters_follow_the_current_registry():
    net = Sequential(Linear(3, 4, rng=0), Sigmoid())
    x = np.zeros((5, 3))
    first, second = MetricsRegistry(), MetricsRegistry()
    previous = set_registry(first)
    try:
        compiled_plan(net)(x)
        set_registry(second)
        compiled_plan(net)(x)
        compiled_plan(net)(x[:2])
    finally:
        set_registry(previous)

    def counts(registry):
        return tuple(
            sum(registry.counter(f"repro_inference_fused_{kind}_total").samples().values())
            for kind in ("calls", "rows")
        )

    assert counts(first) == (1, 5)
    assert counts(second) == (2, 7)
