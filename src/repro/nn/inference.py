"""Fused, tape-free inference kernels for fitted modules.

``sample()`` runs a decoder forward thousands of times per second, and the
tape-based :class:`~repro.nn.autograd.Tensor` path pays for machinery
inference never uses: a Tensor wrapper, a backward closure, and a fresh
full-size temporary per op (affine output, bias add, activation output, final
clip).  :func:`compile_inference` walks a fitted :class:`~repro.nn.layers.MLP`
/ :class:`~repro.nn.layers.Sequential` once and emits a
:class:`CompiledForward` that runs the same arithmetic with none of that:

- ``np.dot(x, W, out=buffer)`` for every affine, writing into a preallocated
  per-batch-shape buffer (a ping-pong pair when adjacent hidden layers share
  a width), with the bias added in place;
- activations applied **in place** on the affine output (sigmoid as the
  exact clip/negate/exp/add/divide chain of the tape op);
- fused epilogues: every plan ends in the Bernoulli decoder's ``clip(0, 1)``,
  run in place on the output buffer instead of producing one more full-size
  copy, and :func:`label_scores` folds the replicated one-hot label block
  without copying it.

**Bit-identity contract.**  Every elementwise chain replicates the tape op's
exact operation order and dtype, so a compiled forward returns *bit-identical*
float64 output to ``np.clip(module(Tensor(x)).data, 0, 1)`` under
``no_grad()``.  Two subtleties are load-bearing:

- the tape ReLU is ``x * (x > 0)`` — multiply by a bool mask, which maps
  negative values to ``-0.0`` — so the fused kernel multiplies in place by
  the mask rather than calling ``np.maximum`` (which would yield ``+0.0``);
- buffers are reused *per batch shape per thread*, because BLAS GEMM output
  is **not** bit-stable across different batch sizes on all builds (measured
  on this hardware: a ``(1, k)`` matvec takes a different kernel than the
  same row inside a ``(n, k)`` GEMM).  Re-running the same shapes always
  reproduces the same bits.

The final layer always writes a **fresh** output array (callers collect
chunks in lists; handing out a shared buffer would alias them), while every
intermediate buffer is cached per batch size in thread-local storage — the
chunked streaming path reuses one buffer set across all of a request's
chunks, and concurrent HTTP threads never share a buffer.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.nn.layers import Linear, MLP, ReLU, Sequential, Sigmoid

__all__ = [
    "CompileError",
    "CompiledForward",
    "compile_inference",
    "compiled_plan",
    "inference_metrics",
    "label_scores",
]

#: Distinct batch sizes whose intermediate buffers are kept per thread.  A
#: streaming request uses at most two (chunk_size and the final partial
#: chunk); the cap only matters for pathological callers cycling sizes.
MAX_CACHED_BATCH_SIZES = 8


class CompileError(ValueError):
    """The module contains an op the fused path cannot reproduce exactly."""


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def inference_metrics():
    """The ``(calls_counter, rows_counter)`` pair on the current process registry.

    Looked up on every call, so a registry swapped in with
    :func:`repro.obs.set_registry` receives the counts from then on; importing
    this module never touches the registry.
    """
    from repro.obs import get_registry

    registry = get_registry()
    return (
        registry.counter(
            "repro_inference_fused_calls_total",
            "Decoder forward passes served by the fused tape-free path",
        ),
        registry.counter(
            "repro_inference_fused_rows_total",
            "Rows decoded through the fused tape-free path",
        ),
    )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class _Affine:
    """One ``x @ W + b`` step.  Reads ``param.data`` at call time, so a
    ``load_state_dict`` that rebinds parameter arrays never stales a plan."""

    __slots__ = ("weight", "bias", "out_features")

    def __init__(self, layer: Linear):
        self.weight = layer.weight
        self.bias = layer.bias
        self.out_features = int(layer.out_features)


def _relu_(buf: np.ndarray) -> None:
    # Tape op: ``x * (x > 0)`` — the bool-mask multiply (not np.maximum)
    # preserves the tape's -0.0 bit pattern for negative inputs.
    np.multiply(buf, buf > 0, out=buf)


def _sigmoid_(buf: np.ndarray) -> None:
    # Tape op: 1.0 / (1.0 + exp(-clip(x, -500, 500))), replayed in place.
    np.clip(buf, -500, 500, out=buf)
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    np.add(buf, 1.0, out=buf)
    np.divide(1.0, buf, out=buf)


_ACTIVATIONS = {ReLU: _relu_, Sigmoid: _sigmoid_}


def _walk(module) -> list:
    """Flatten a module tree into an op list of ``_Affine`` and in-place
    activation kernels, or raise :class:`CompileError`."""
    ops: list = []
    if isinstance(module, MLP):
        ops.extend(_walk(module.net))
    elif isinstance(module, Sequential):
        for layer in module.layers:
            ops.extend(_walk(layer))
    elif isinstance(module, Linear):
        ops.append(_Affine(module))
    elif type(module) in _ACTIVATIONS:
        ops.append(_ACTIVATIONS[type(module)])
    else:
        raise CompileError(f"cannot fuse {type(module).__name__}")
    return ops


class CompiledForward:
    """A fused, tape-free forward emitted by :func:`compile_inference`."""

    def __init__(self, ops: list):
        if not ops:
            raise CompileError("module contains no ops to fuse")
        self._ops = ops
        # Intermediate affine outputs (all but the last) get cached buffers;
        # the returned array is always freshly allocated.
        affine_indices = [i for i, op in enumerate(ops) if isinstance(op, _Affine)]
        self._last_affine = affine_indices[-1] if affine_indices else None
        self._intermediate_widths = [
            ops[i].out_features for i in affine_indices[:-1]
        ]
        self._local = threading.local()

    def _buffers(self, n: int) -> list:
        """The per-thread intermediate buffer set for batch size ``n``."""
        cache = getattr(self._local, "cache", None)
        if cache is None:
            cache = self._local.cache = {}
        buffers = cache.get(n)
        if buffers is None:
            # Same-width adjacent layers naturally alternate between their
            # two entries here — the ping-pong pair.
            buffers = [np.empty((n, width)) for width in self._intermediate_widths]
            while len(cache) >= MAX_CACHED_BATCH_SIZES:
                cache.pop(next(iter(cache)))
            cache[n] = buffers
        return buffers

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("compiled forward expects a 2-D (batch, features) input")
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        buffers = self._buffers(x.shape[0])
        h = x
        owned = False  # activations may only run in place on our own buffers
        next_buffer = 0
        for index, op in enumerate(self._ops):
            if isinstance(op, _Affine):
                if index == self._last_affine:
                    target = np.empty((x.shape[0], op.out_features))
                else:
                    target = buffers[next_buffer]
                    next_buffer += 1
                np.dot(h, op.weight.data, out=target)
                target += op.bias.data
                h = target
                owned = True
            else:
                if not owned:
                    h = h.copy()
                    owned = True
                op(h)
        np.clip(h, 0.0, 1.0, out=h)
        calls, rows = inference_metrics()
        calls.inc()
        rows.inc(x.shape[0])
        return h


def compile_inference(module) -> CompiledForward:
    """Compile a fitted decoder module into a fused tape-free forward.

    The plan ends in the Bernoulli decoder's output clip to ``[0, 1]``.
    Raises :class:`CompileError` when the module holds an op the fused path
    cannot replicate bit-for-bit.
    """
    return CompiledForward(_walk(module))


# Plans keyed weakly on the module: models that rebuild their decoder (every
# ``load_state_dict`` goes through ``_build``) invalidate automatically, the
# fitted models themselves stay pickleable (no plan attribute to drag a
# threading.local through a process pool), and evicted models drop their
# plans with them.
_plan_lock = threading.Lock()
_plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compiled_plan(module) -> CompiledForward:
    """The cached compiled forward for ``module``.

    Raises :class:`CompileError` (and caches nothing) when the module does
    not compile.
    """
    with _plan_lock:
        plan = _plans.get(module)
        if plan is None:
            plan = _plans[module] = compile_inference(module)
    return plan


# ---------------------------------------------------------------------------
# Label-block epilogue
# ---------------------------------------------------------------------------


def label_scores(rows: np.ndarray, n_classes: int, repeat: int) -> np.ndarray:
    """Per-class activation summed over a replicated one-hot label block.

    The trailing ``n_classes * repeat`` columns of ``rows`` are reduced to
    ``(len(rows), n_classes)`` scores without copying the block: the slice
    view reshapes to ``(n, repeat, n_classes)`` in place (each row's block is
    contiguous) and a single ``add.reduce`` folds the repeats.
    """
    width = n_classes * repeat
    block = rows[:, rows.shape[1] - width:]
    return np.add.reduce(block.reshape(len(rows), repeat, n_classes), axis=1)
