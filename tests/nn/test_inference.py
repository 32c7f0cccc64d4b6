"""Tests for the compiled tape-free forward (:mod:`repro.nn.inference`).

Sampling has no tape fallback: a module the fused path cannot reproduce
raises :class:`CompileError`, and a module that compiles must return the
autograd forward's rows bit for bit.
"""

import numpy as np
import pytest

from repro.models.base import decode_rows
from repro.nn import CompileError, Linear, Module, ReLU, Sequential, Sigmoid, Tensor, no_grad
from repro.nn.inference import compile_inference, compiled_plan


class Square(Module):
    """An op the fused path has no kernel for."""

    def forward(self, x):
        return x * x


def tape_forward(module, x):
    with no_grad():
        return module(Tensor(x)).data


class TestCompileErrors:
    def test_module_without_a_kernel_is_refused(self):
        with pytest.raises(CompileError, match="cannot fuse Square"):
            compile_inference(Sequential(Linear(3, 4, rng=0), Square()))

    def test_unknown_epilogue_is_refused(self):
        with pytest.raises(CompileError, match="unknown epilogue"):
            compile_inference(Linear(3, 4, rng=0), epilogue="tanh")

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
            decode_rows(decoder, np.zeros((4, 2)), "bernoulli")
