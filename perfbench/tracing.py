"""In-memory span recording around the public entry points of each layer.

Nothing here edits ``repro``: the ``install_*`` functions replace functions
and methods with wrappers that time each call and then call the original.  A
span records the operation (trial or request id) it belongs to, its layer
name, start, duration, *self time* (its duration minus the time covered by
spans nested inside it, on the same thread) and the name of its parent.  Spans stay in memory; the owner writes them out
when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    """Span stack per thread, spans and counters per process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = []  # (tag, name, start, duration, self_time, parent)
        self.counts = defaultdict(float)  # (tag, name) -> count

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def tag(self):
        """The id of the operation (trial or request) this thread works on."""
        return getattr(self._local, "tag", None)

    @tag.setter
    def tag(self, value):
        self._local.tag = value

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        frame = [0.0, name]  # time covered by children, layer name
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            parent = None
            if stack:
                stack[-1][0] += duration
                parent = stack[-1][1]
            self.spans.append((self.tag, name, start, duration, duration - frame[0], parent))

    def count(self, name, amount=1):
        with self._lock:
            self.counts[(self.tag, name)] += amount

    def iterate(self, name, iterable):
        """Wrap an iterator so each ``next`` is one span named ``name``."""
        iterator = iter(iterable)
        while True:
            try:
                item = self.call(name, next, (iterator,), {})
            except StopIteration:
                return
            yield item


def _wrap(tracer, name, fn, counter=None):
    """A wrapper timing ``fn`` as span ``name``; ``counter(result, args)``
    returns ``(count_name, amount)`` to record alongside."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if counter is not None:
            tracer.count(*counter(result, args))
        return result

    return wrapper


def _counting(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _patch_function(module, attr, replacement_for):
    """Replace ``module.attr`` in every ``repro`` module that imported it."""
    original = getattr(module, attr)
    replacement = replacement_for(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, attr, None) is original
        ):
            setattr(loaded, attr, replacement)


def _patch_method(cls, attr, replacement_for):
    setattr(cls, attr, replacement_for(getattr(cls, attr)))


#: Suite names the utility protocol gives its four tabular classifiers.
CLASSIFIER_NAMES = {
    "LogisticRegression": "LogisticRegression",
    "AdaBoostClassifier": "AdaBoost",
    "GradientBoostingClassifier": "GBM",
    "XGBClassifier": "XgBoost",
}


def install_training(tracer):
    """Wrap the layers a utility trial crosses (fit -> sample -> classify)."""
    import repro.datasets
    import repro.evaluation.pipeline as pipeline
    import repro.privacy.clipping as clipping
    import repro.privacy.accounting.rdp as rdp
    from repro.decomposition import DPPCA
    from repro.engine import callbacks as engine_callbacks
    from repro.engine.samplers import BatchSampler
    from repro.engine.trainer import Trainer
    from repro.mixture import DPGaussianMixture
    from repro import ml
    from repro.nn.autograd import Tensor
    from repro.nn.optim import Optimizer
    from repro.privacy.accounting import P3GMAccountant
    from repro.privacy.dp_sgd import DPSGD

    wrap = functools.partial(_wrap, tracer)
    _patch_function(repro.datasets, "load_dataset", lambda f: wrap("datasets.load_s", f))
    _patch_function(rdp, "rdp_subsampled_gaussian",
                    lambda f: _counting(tracer, "accounting.rdp_evals", f))
    for attr in ("calibrate_sigma_em", "calibrate_sigma_sgd"):
        _patch_method(P3GMAccountant, attr, lambda f: wrap("accounting.calibrate_s", f))
    _patch_method(DPPCA, "fit", lambda f: wrap("decomposition.dp_pca_s", f))
    _patch_method(DPGaussianMixture, "fit", lambda f: wrap("mixture.dp_em_s", f))

    def trainer_fit(original):
        def fit(self, n_samples, epochs, loss_fn, *args, **kwargs):
            def forward(index):
                tracer.count("engine.steps")
                return tracer.call("models.forward_s", loss_fn, (index,), {})

            return tracer.call(
                "engine.fit_s", original, (self, n_samples, epochs, forward) + args, kwargs
            )

        return functools.wraps(original)(fit)

    _patch_method(Trainer, "fit", trainer_fit)
    for sampler in [BatchSampler] + BatchSampler.__subclasses__():
        if "epoch_batches" in vars(sampler):
            _patch_method(sampler, "epoch_batches", lambda f: functools.wraps(f)(
                lambda *a, **k: tracer.iterate("engine.batches_s", f(*a, **k))
            ))
    callback_classes = [engine_callbacks.Callback] + engine_callbacks.Callback.__subclasses__()
    for cls in callback_classes:
        for attr in ("on_step_end", "on_epoch_end"):
            if attr in vars(cls):
                _patch_method(cls, attr, lambda f: wrap("obs.callbacks_s", f))
    _patch_method(Tensor, "backward", lambda f: wrap("nn.backward_s", f))
    _patch_method(Optimizer, "apply_gradients", lambda f: wrap("nn.optimizer_s", f))
    _patch_method(Tensor, "grad_sample_sq_norms", lambda f: wrap("privacy.clip_s", f))
    _patch_method(Tensor, "clipped_grad_sum", lambda f: wrap("privacy.clip_s", f))
    _patch_function(clipping, "per_example_scale_factors",
                    lambda f: wrap("privacy.clip_s", f))
    _patch_method(DPSGD, "step", lambda f: wrap("privacy.noise_s", f))
    for class_name, suite_name in CLASSIFIER_NAMES.items():
        _patch_method(getattr(ml, class_name), "fit",
                      lambda f, s=suite_name: wrap(f"ml.fit_s.{s}", f))
    _patch_function(pipeline, "_score_classifier", lambda f: wrap("ml.score_s", f))
    install_sampling(tracer)


def install_sampling(tracer):
    """Wrap labelled sampling and the fused decoder (trial and server paths)."""
    from repro.models.base import LabelEncodingMixin
    from repro.nn.inference import CompiledForward

    _patch_method(LabelEncodingMixin, "sample_labeled",
                  lambda f: _wrap(tracer, "models.sample_labeled", f))
    _patch_method(CompiledForward, "__call__", lambda f: _wrap(
        tracer, "inference.decode_s", f,
        counter=lambda result, args: ("inference.rows", len(result)),
    ))


def install_server(tracer):
    """Wrap the HTTP tier; spans are tagged with the client's X-Request-Id."""
    import repro.server.app as app
    from repro.serving.service import SynthesisService

    install_sampling(tracer)
    wrap = functools.partial(_wrap, tracer)
    _patch_function(app, "parse_sample_request", lambda f: wrap("server.parse_s", f))
    _patch_function(app, "encode_chunk", lambda f: wrap(
        "server.encode_s", f, counter=lambda result, args: ("server.bytes_out", len(result))
    ))
    _patch_method(SynthesisService, "get", lambda f: wrap("serving.lookup_s", f))

    def traced_stream(original):
        def stream(*args, **kwargs):
            for chunk in tracer.iterate("serving.chunk_s", original(*args, **kwargs)):
                tracer.count("serving.chunks")
                yield chunk

        return functools.wraps(original)(stream)

    for attr in ("stream", "stream_labeled"):
        _patch_method(SynthesisService, attr, traced_stream)

    handler = app._SynthesisRequestHandler
    do_post = handler.do_POST

    def request(self):
        tracer.tag = self.headers.get("X-Request-Id")
        try:
            tracer.call("server.request", do_post, (self,), {})
        finally:
            tracer.tag = None

    handler.do_POST = request

    send_error = handler._send_protocol_error

    def protocol_error(self, error, close=False):
        if error.code == "saturated":
            tracer.count("server.rejected")
        return send_error(self, error, close)

    handler._send_protocol_error = protocol_error


def self_times(spans, tags):
    """``{name: (self_seconds, total_seconds)}`` over the spans tagged with
    one of ``tags``."""
    table = defaultdict(lambda: [0.0, 0.0])
    for tag, name, _start, duration, self_time, _parent in spans:
        if tag in tags:
            table[name][0] += self_time
            table[name][1] += duration
    return {name: tuple(entry) for name, entry in table.items()}
