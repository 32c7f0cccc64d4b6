"""Neural network modules built on the autograd engine.

The layer zoo is intentionally the one the paper needs: fully connected
encoders/decoders with ReLU activations (two FC layers of width 1000 per the
paper's implementation section), plus dropout for the downstream MLP
classifier.  Every layer with parameters participates in per-example gradient
capture through :meth:`Tensor.affine`.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.nn import init as init_module
from repro.nn.autograd import Tensor
from repro.utils.rng import as_generator

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Dropout",
    "Sequential",
    "MLP",
]


class Parameter(Tensor):
    """A tensor registered as a learnable parameter of a module.

    An optimizer makes ``data`` a view into its parameter arena (see
    :mod:`repro.nn.optim`), so new values are written in place.
    """

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class providing parameter management and train/eval switching."""

    def __init__(self):
        self.training = True

    # -- parameter traversal ---------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its submodules."""
        seen: set[int] = set()
        for value in self.__dict__.values():
            if isinstance(value, Parameter) and id(value) not in seen:
                seen.add(id(value))
                yield value
            elif isinstance(value, Module):
                for p in value.parameters():
                    if id(p) not in seen:
                        seen.add(id(p))
                        yield p
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        for p in item.parameters():
                            if id(p) not in seen:
                                seen.add(id(p))
                                yield p

    def named_modules(self):
        """Yield ``(name, module)`` pairs of direct submodules."""
        for name, value in self.__dict__.items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    # -- train/eval ---------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, module in self.named_modules():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- (de)serialisation ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Flatten all parameter values into a dict of numpy arrays."""
        return {f"param_{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict) -> None:
        """Write the values of :meth:`state_dict` into the parameters, in place
        (a parameter's ``data`` may be a view into an optimizer's arena)."""
        params = list(self.parameters())
        if len(state) != len(params):
            raise ValueError(
                f"state dict has {len(state)} entries but module has {len(params)} parameters"
            )
        for i, p in enumerate(params):
            value = np.asarray(state[f"param_{i}"])
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {i}: {value.shape} vs {p.data.shape}"
                )
            p.data[...] = value

    # -- call protocol ----------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Fully connected layer ``y = x W + b`` with per-example gradient support."""

    def __init__(self, in_features: int, out_features: int, rng=None):
        super().__init__()
        rng = as_generator(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_module.kaiming_uniform((in_features, out_features), rng))
        self.bias = Parameter(init_module.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        return x.affine(self.weight, self.bias)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = as_generator(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)


class Sequential(Module):
    """Container applying modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


def final_linear(module: "Module") -> "Linear":
    """Return the last :class:`Linear` layer of an MLP/Sequential.

    Used by the generative models to shrink the output layer's initial weights
    so Bernoulli decoders start near probability 0.5 — important for stable
    DP-SGD training, where recovering from a badly saturated initialisation is
    slow because every step is clipped and noised.
    """
    stack = [module]
    last = None
    while stack:
        current = stack.pop(0)
        if isinstance(current, Linear):
            last = current
        elif isinstance(current, Sequential):
            stack.extend(current.layers)
        elif isinstance(current, MLP):
            stack.append(current.net)
    if last is None:
        raise ValueError("module contains no Linear layer")
    return last


class MLP(Module):
    """A multi-layer perceptron with a configurable hidden stack.

    Matches the architecture used throughout the paper's experiments: fully
    connected layers with ReLU activations, and an optional output activation
    (``"sigmoid"`` for Bernoulli decoders, ``None`` for real-valued heads).
    """

    def __init__(
        self,
        in_features: int,
        hidden: tuple,
        out_features: int,
        output_activation: Optional[str] = None,
        dropout: float = 0.0,
        rng=None,
    ):
        super().__init__()
        rng = as_generator(rng)
        dims = [in_features, *hidden, out_features]
        layers: list[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng=rng))
            is_last = i == len(dims) - 2
            if not is_last:
                layers.append(ReLU())
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
        if output_activation == "sigmoid":
            layers.append(Sigmoid())
        elif output_activation is not None:
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
