"""``repro.nn`` — a from-scratch numpy neural-network framework.

This package stands in for PyTorch in the original P3GM implementation.  It
provides reverse-mode autodiff (:mod:`repro.nn.autograd`), layers
(:mod:`repro.nn.layers`), the models' losses and KL terms
(:mod:`repro.nn.functional`) and optimizers (:mod:`repro.nn.optim`), plus
per-example gradient capture needed by DP-SGD.  It holds only what the
models run: bias-carrying ReLU/sigmoid MLPs, Kaiming initialisation, and the
tape ops their objectives use.
"""

from repro.nn import functional, inference
from repro.nn.autograd import (
    Tensor,
    grad_sample_mode,
    is_grad_enabled,
    is_grad_sample_enabled,
    no_grad,
)
from repro.nn.layers import (
    MLP,
    Dropout,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
)
from repro.nn.inference import (
    CompiledForward,
    CompileError,
    compile_inference,
    compiled_plan,
)
from repro.nn.optim import Adam, Optimizer

__all__ = [
    "Tensor",
    "inference",
    "CompileError",
    "CompiledForward",
    "compile_inference",
    "compiled_plan",
    "no_grad",
    "grad_sample_mode",
    "is_grad_enabled",
    "is_grad_sample_enabled",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Dropout",
    "Sequential",
    "MLP",
    "Optimizer",
    "Adam",
]
