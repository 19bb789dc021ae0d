"""Span tracing of slabgan's layers, installed from outside the package.

A ``Tracer`` records one span (name, start, end, parent, layer) at each
layer boundary by wrapping public callables of the ``slabgan`` modules:
tensor ops (forward, and backward through a wrapper on each output's
``_bwd`` closure), ``backward``, ``adam_step``, ``downsample_volume``,
the named networks and every layer inside them. Training phases are
marked by wrapping ``training._only_trainable``, which ``train_step``
calls once at the start of each phase.

Functions that other modules bound by name at import time (``training``
and ``sr`` import ``backward`` and ``adam_step``; ``geometry`` imports
``slice_axis``) are patched on every ``slabgan`` module that holds them,
and activations are also patched in ``tensor.ACTIVATIONS``. ``uninstall``
restores every patched attribute.

Spans stay in memory; ``summary`` turns them into per-name self and
inclusive times, and ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# ops whose forward and backward self time make up ``tensor.other_ops_s``
OTHER_OPS = ("add", "sub", "mul", "square", "tabs", "tsum", "tmean", "mean_axes",
             "reshape", "concat", "slice_axis", "relu", "leaky_relu", "elu", "tanh",
             "sigmoid", "softplus", "softmax", "cross_entropy_logits")
HEAVY_OPS = ("conv3d", "group_norm", "resize3d", "dense", "spectral_norm")
PHASES = ("d", "g", "eh", "eg")


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, layer name or None]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tape_nodes_max = 0
        self.layer_net: dict[str, str] = {}     # layer span name -> network label
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._net_names: dict[int, str] = {}
        self._phase: int | None = None
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, layer: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, layer])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span nesting broken: closed {idx}, open {top}")

    def run(self, name: str, fn, *args, **kw):
        """Call ``fn`` inside a span named ``name``; closes an open phase span."""
        idx = self.open(name)
        try:
            return fn(*args, **kw)
        finally:
            self.end_phase()
            self.close(idx)

    def end_phase(self) -> None:
        if self._phase is not None:
            self.close(self._phase)
            self._phase = None

    # -- patching ------------------------------------------------------------
    def _set(self, obj, attr, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr), attr in vars(obj)))
        setattr(obj, attr, value)

    def _set_everywhere(self, orig, value) -> None:
        """Replace ``orig`` on every slabgan module that holds it by name."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "slabgan" or modname.startswith("slabgan.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, value)

    def uninstall(self) -> None:
        for obj, attr, old, own in reversed(self._patched):
            if isinstance(obj, dict):
                obj[attr] = old
            elif own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._patched.clear()

    def install(self, networks: dict, extra_layers: dict | None = None) -> "Tracer":
        """Wrap slabgan's ops and the given networks.

        ``networks`` maps a label (``"networks.g_a"``, ``"sr.gen"``, ...) to a
        ``Sequential``, ``Discriminator`` or ``SRGenerator`` instance;
        ``extra_layers`` maps a span name to a layer called directly through
        ``.forward`` (the SR generator's interpolations), keyed by label.
        """
        from slabgan import layers, networks as nw, optim, sr, tensor as T, training

        for op in HEAVY_OPS + OTHER_OPS:
            orig = getattr(T, op)
            self._set_everywhere(orig, self._op(orig, f"tensor.{op}"))
        for kind, orig in list(T.ACTIVATIONS.items()):
            self._patched.append((T.ACTIVATIONS, kind, orig, True))
            T.ACTIVATIONS[kind] = getattr(T, orig.__name__)
        counted_backward = self._counted(T.backward, "tensor.backward")

        def backward(loss):
            self.tape_nodes_max = max(self.tape_nodes_max, len(T.active_tape()))
            counted_backward(loss)
        self._set_everywhere(T.backward, backward)
        self._set_everywhere(optim.adam_step, self._counted(optim.adam_step, "optim.adam"))
        self._set_everywhere(training.downsample_volume,
                             self._counted(training.downsample_volume, "training.downsample"))
        self._set(training, "_only_trainable", self._phase_marker(training._only_trainable))

        for cls in (layers.Sequential, nw.Discriminator, sr.SRGenerator):
            self._set(cls, "__call__", self._net_call(cls.__call__))
        for label, net in networks.items():
            self._net_names[id(net)] = label
            for seq in _sequentials(net):
                for lname, layer in seq.layers:
                    self._wrap_layer(layer, f"{seq.prefix}/{lname}", label)
        for label, named in (extra_layers or {}).items():
            for span_name, layer in named.items():
                self._wrap_layer(layer, span_name, label)
        return self

    def _op(self, fn, name):
        tracer, bwd_name = self, name + ".bwd"
        counts = self.counts

        def wrapped(*args, **kw):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kw)
            finally:
                tracer.close(idx)
            t = out[0] if isinstance(out, tuple) else out
            counts[name + ".calls"] += 1
            counts[name + ".out_bytes"] += t.data.nbytes
            if t._bwd is not None:
                t._bwd = tracer._timed_bwd(t._bwd, bwd_name,
                                           tracer._layers[-1] if tracer._layers else None)
            return out
        wrapped.__name__ = fn.__name__
        return wrapped

    def _timed_bwd(self, bwd, name, layer):
        tracer = self

        def timed(g):
            idx = tracer.open(name, layer)
            try:
                bwd(g)
            finally:
                tracer.close(idx)
        return timed

    def _counted(self, fn, name):
        tracer, counts = self, self.counts

        def wrapped(*args, **kw):
            counts[name + ".calls"] += 1
            idx = tracer.open(name)
            try:
                return fn(*args, **kw)
            finally:
                tracer.close(idx)
        return wrapped

    def _phase_marker(self, fn):
        tracer = self

        def wrapped(state, prefixes):
            nets = state.nets
            phase = {tuple(nets.discriminator_prefixes): "d",
                     tuple(nets.generator_prefixes): "g",
                     ("e_h/",): "eh", ("e_g/",): "eg"}.get(tuple(prefixes), "other")
            tracer.end_phase()
            tracer._phase = tracer.open(f"training.phase_{phase}")
            return fn(state, prefixes)
        return wrapped

    def _net_call(self, call):
        tracer, names = self, self._net_names

        def wrapped(net, *args, **kw):
            label = names.get(id(net))
            if label is None:
                return call(net, *args, **kw)
            idx = tracer.open(label)
            try:
                return call(net, *args, **kw)
            finally:
                tracer.close(idx)
        return wrapped

    def _wrap_layer(self, layer, span_name, label):
        tracer, fwd = self, layer.forward
        self.layer_net[span_name] = label

        def forward(x, training):
            tracer._layers.append(span_name)
            idx = tracer.open(span_name, span_name)
            try:
                return fwd(x, training)
            finally:
                tracer.close(idx)
                tracer._layers.pop()
        self._set(layer, "forward", forward)

    # -- reporting -----------------------------------------------------------
    def summary(self):
        """Per-name self time, inclusive time and call count.

        Spans of the same name nested in each other (none occur here) would
        be counted twice in the inclusive total.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_t, incl, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        layer_bwd = defaultdict(float)
        for i, (name, t0, t1, _, layer) in enumerate(self.spans):
            self_t[name] += t1 - t0 - child[i]
            incl[name] += t1 - t0
            calls[name] += 1
            if layer is not None and name != layer:
                layer_bwd[layer] += t1 - t0
        return self_t, incl, calls, layer_bwd

    def per_layer_metrics(self, n_ops: int) -> dict:
        """The traced per-layer figures, per workload op (step or round)."""
        self_t, incl, calls, _ = self.summary()
        c = self.counts
        m = {}
        for op in HEAVY_OPS:
            m[f"tensor.{op}.fwd_s"] = self_t[f"tensor.{op}"] / n_ops
            m[f"tensor.{op}.bwd_s"] = self_t[f"tensor.{op}.bwd"] / n_ops
        m["tensor.conv3d.calls"] = c["tensor.conv3d.calls"] / n_ops
        m["tensor.conv3d.out_bytes"] = c["tensor.conv3d.out_bytes"] / n_ops
        m["tensor.other_ops_s"] = sum(self_t[f"tensor.{op}"] + self_t[f"tensor.{op}.bwd"]
                                      for op in OTHER_OPS) / n_ops
        m["tensor.backward_s"] = self_t["tensor.backward"] / n_ops
        m["tensor.tape_nodes_max"] = float(self.tape_nodes_max)
        for net in ("g_a", "g_l", "g_h", "d_l", "d_h", "e_h", "e_g"):
            m[f"networks.{net}.fwd_s"] = incl[f"networks.{net}"] / n_ops
        m["sr.gen.fwd_s"] = incl["sr.gen"] / n_ops
        m["metrics.extractor.fwd_s"] = incl["metrics.extractor"] / n_ops
        for p in PHASES:
            m[f"training.phase_{p}_s"] = incl[f"training.phase_{p}"] / n_ops
        m["training.downsample_s"] = incl["training.downsample"] / n_ops
        m["optim.adam_s"] = incl["optim.adam"] / n_ops
        m["optim.adam_calls"] = c["optim.adam.calls"] / n_ops
        return m

    def flat_table(self, n_ops: int, op_s: float, top: int = 30) -> str:
        """Span names by self time: seconds and calls per op, share of the op."""
        self_t, incl, calls, _ = self.summary()
        rows = sorted(self_t, key=lambda k: -self_t[k])[:top]
        lines = [f"{'span':34s}{'self s/op':>12s}{'incl s/op':>12s}{'calls/op':>10s}{'share':>8s}"]
        for k in rows:
            lines.append(f"{k:34s}{self_t[k] / n_ops:12.5f}{incl[k] / n_ops:12.5f}"
                         f"{calls[k] / n_ops:10.1f}{self_t[k] / n_ops / op_s:8.1%}")
        return "\n".join(lines)

    def network_tables(self, n_ops: int, op_s: float) -> str:
        """One table per network: each layer's forward and backward time.

        A layer's forward is its span; its backward is the backward of every
        op output created inside it. Layers do not nest, so these are the
        layers' self times at layer granularity.
        """
        _, incl, calls, layer_bwd = self.summary()
        by_net = defaultdict(list)
        for layer, label in self.layer_net.items():
            if calls[layer]:
                by_net[label].append(layer)
        out = []
        for label in sorted(by_net):
            lines = [f"[{label}]  forward {incl[label] / n_ops:.5f} s/op",
                     f"  {'layer':28s}{'fwd s/op':>11s}{'bwd s/op':>11s}{'calls/op':>10s}{'share':>8s}"]
            for layer in by_net[label]:
                f, b = incl[layer] / n_ops, layer_bwd[layer] / n_ops
                lines.append(f"  {layer:28s}{f:11.5f}{b:11.5f}{calls[layer] / n_ops:10.1f}"
                             f"{(f + b) / op_s:8.1%}")
            out.append("\n".join(lines))
        return "\n\n".join(out)

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans} | {s[4] for s in self.spans if s[4]})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(t0, 7), round(t1, 7), p, index[l] if l else -1]
                for n, t0, t1, p, l in self.spans]
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start", "end", "parent", "layer"],
                       "names": names, "spans": rows, "counts": dict(self.counts),
                       "tape_nodes_max": self.tape_nodes_max}, f)


def _sequentials(net):
    """The Sequential stacks inside a network, whatever its kind."""
    if hasattr(net, "layers"):
        return [net]
    if hasattr(net, "trunk"):
        return [s for s in (net.trunk, net.adv_head, net.cls_head) if s is not None]
    return [net.head, net.enc, net.dec, net.residual_head]
