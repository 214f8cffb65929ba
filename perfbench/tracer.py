"""Run one replaycm command with span tracing switched on.

    python3 perfbench/tracer.py SPANS.json simulate --out corpus ...

The arguments after the spans path are passed to ``replaycm.cli.main``
unchanged, so a traced command has the same process structure as
``python3 -m replaycm.cli ...``.  Before ``main`` runs, this module wraps,
from the outside and without touching the package:

* every public module-level function of each replaycm layer, rebound in
  every replaycm namespace that imported it by name (``cli`` imports
  ``read_gram``, ``train``, ``saliency_map`` ... and ``training`` imports
  ``read_gram``, ``score_batch`` and ``eer`` that way);
* the methods that carry structure: ``ResNet.forward``,
  ``BasicBlock.__call__`` (tagged with its stage), ``BatchNorm2d.__call__``,
  ``CqtKernel.__init__``/``transform``, ``AdamW.step``,
  ``FeatureStore.load``/``load_batch`` and ``FusionModel.fuse``;
* the ``_backward`` closure of every tensor a wrapped autodiff op returns,
  tagged with the model stage whose forward created it;
* ``cli.ThreadPoolExecutor``, so spans in ``--jobs`` worker threads name
  the span that submitted them as parent.

Spans (id, name, start, end, parent id, thread, info) stay in memory and are
written as JSON when ``main`` returns.  Times are ``time.perf_counter`` (the
system monotonic clock), so they line up with the harness's own clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("cli", "config", "replay_sim", "audio_io", "features", "autodiff",
          "model", "objectives", "training", "scoring", "metrics")

# private helpers that are worth a span of their own
PRIVATE = {"cli": ("_extract_one", "_labeled_records"), "training": ("_score_entries",)}

# (layer, class, method, span name)
METHODS = (
    ("autodiff", "BatchNorm2d", "__call__", "autodiff.batchnorm2d"),
    ("model", "ResNet", "forward", "model.forward"),
    ("model", "BasicBlock", "__call__", "model.block"),
    ("features", "CqtKernel", "__init__", "features.cqt_kernel_build"),
    ("features", "CqtKernel", "transform", "features.cqt_transform"),
    ("training", "AdamW", "step", "training.adamw_step"),
    ("training", "FeatureStore", "load", "training.load"),
    ("training", "FeatureStore", "load_batch", "training.load_batch"),
    ("scoring", "FusionModel", "fuse", "scoring.fuse"),
)


CURRENT = object()


class Recorder:
    """Collects finished spans; each thread keeps its own stack of open ids."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stage = None
        return local

    def wrap(self, fn, name, info=None, on_exit=None, stage=CURRENT):
        """A timed stand-in for ``fn``.  ``info(args, kwargs, out)`` adds
        fields to the span, ``on_exit(out, state)`` runs after it, and
        ``stage`` fixes the model stage the span is tagged with (by default,
        the stage active when it is called)."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = rec.state()
            parent = st.stack[-1] if st.stack else None
            sid = next(rec._ids)
            tag = st.stage if stage is CURRENT else stage
            st.stack.append(sid)
            t0 = perf_counter()
            out, ok = None, False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                st.stack.pop()
                extra = {"stage": tag} if tag is not None else {}
                if ok and info is not None:
                    extra.update(info(args, kwargs, out))
                rec.spans.append((sid, name, t0, t1, parent,
                                  threading.get_ident(), extra or None))
                if ok and on_exit is not None:
                    on_exit(out, st)

        traced.__perfbench__ = True
        return traced

    def dump(self, path, argv, t_main0, t_main1):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"argv": argv, "main": [t_main0, t_main1], "spans": self.spans}, fh)


def _nbytes(args, kwargs, out):
    return {"bytes": int(out.data.nbytes)}


def _write_bytes(args, kwargs, out):
    gram = args[0] if args else kwargs["gram"]
    return {"bytes": int(gram.data.size * 4)}


def _conv_info(args, kwargs, out):
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    n, co, ho, wo = out.data.shape
    _, ci, kh, kw = weight.data.shape
    taps = ci * kh * kw
    return {"flops": 2 * n * co * taps * ho * wo,
            "cols_bytes": n * taps * ho * wo * out.data.dtype.itemsize}


def _forward_info(args, kwargs, out):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return {"train": bool(train), "n": int(out.data.shape[0])}


def _batch_info(args, kwargs, out):
    return {"n": int(len(out))}


INFO = {
    "features.read_gram": _nbytes,
    "features.write_gram": _write_bytes,
    "autodiff.conv2d": _conv_info,
    "model.forward": _forward_info,
    "model.score_batch": _batch_info,
}


def install(rec: Recorder):
    """Wrap the package in place; returns the replaycm.cli module."""
    modules = {layer: importlib.import_module(f"replaycm.{layer}") for layer in LAYERS}
    tensor_type = modules["autodiff"].Tensor
    replaced = {}

    def time_backward(name):
        def after(out, st):
            bwd = out._backward if isinstance(out, tensor_type) else None
            if bwd is not None and not getattr(bwd, "__perfbench__", False):
                # tagged with the stage whose forward created the op
                out._backward = rec.wrap(bwd, name + "_bwd", stage=st.stage)
        return after

    for layer, mod in modules.items():
        names = [n for n, obj in vars(mod).items()
                 if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                 and (not n.startswith("_") or n in PRIVATE.get(layer, ()))]
        for n in names:
            fn = getattr(mod, n)
            span = f"{layer}.{n}"
            on_exit = time_backward(span) if layer == "autodiff" else None
            replaced[id(fn)] = rec.wrap(fn, span, INFO.get(span), on_exit)

    stage_of = {}

    def staged(fn, stage_for):
        """Run ``fn`` with the thread's model stage set to ``stage_for(self)``;
        afterwards the stage is ``"head"`` for a block (only the head of the
        net runs after the last one) and restored for a whole forward."""
        @functools.wraps(fn)
        def call(self, *args, **kwargs):
            st = rec.state()
            saved, st.stage = st.stage, stage_for(self)
            try:
                return fn(self, *args, **kwargs)
            finally:
                st.stage = saved if saved is None else "head"
        return call

    for layer, cls_name, meth, span in METHODS:
        cls = getattr(modules[layer], cls_name)
        fn = getattr(cls, meth)
        on_exit = time_backward(span) if layer == "autodiff" else None
        if span == "model.forward":
            wrapped = rec.wrap(staged(fn, lambda net: "stem"), span, INFO.get(span))
        elif span == "model.block":
            wrapped = staged(rec.wrap(fn, span), lambda blk: str(stage_of[id(blk)]))
        else:
            wrapped = rec.wrap(fn, span, INFO.get(span), on_exit)
        setattr(cls, meth, wrapped)

    resnet = modules["model"].ResNet
    init = resnet.__init__

    @functools.wraps(init)
    def init_and_map(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for si, blocks in enumerate(self.stages):
            for blk in blocks:
                stage_of[id(blk)] = si
    resnet.__init__ = init_and_map

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "replaycm" or mod_name.startswith("replaycm."):
            for n, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, n, replaced[id(obj)])

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            st = rec.state()
            parent = st.stack[-1] if st.stack else None

            def run(*a, **k):
                s = rec.state()
                s.stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    s.stack.pop()
            return super().submit(run, *args, **kwargs)

    cli = modules["cli"]
    cli.ThreadPoolExecutor = TracedPool
    return cli


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    cli = install(rec)
    t0 = perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        rec.dump(spans_path, cli_args, t0, perf_counter())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
