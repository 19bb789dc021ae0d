"""Named parameter storage and the Adam optimizer.

A ParamStore maps hierarchical names like ``"g_a/conv2/weight"`` to
tensors and owns the per-parameter Adam state (first/second moment and
step count). Non-trainable state such as spectral-norm power-iteration
vectors or batch-norm running statistics lives in a separate buffer map
so checkpoints can restore it bit-exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .tensor import Tensor


class ParamStore:
    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}
        # name -> [m, v, step]
        self.adam_state: dict[str, list] = {}

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self.params:
            raise KeyError(f"duplicate parameter name '{name}'")
        tensor.requires_grad = True
        self.params[name] = tensor
        return tensor

    def register_buffer(self, name: str, arr: np.ndarray) -> np.ndarray:
        if name in self.buffers:
            raise KeyError(f"duplicate buffer name '{name}'")
        self.buffers[name] = arr
        return arr

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def train_only(self, prefixes) -> None:
        """Make exactly the parameters under ``prefixes`` (one prefix or a
        tuple of them) trainable, and freeze every other one."""
        for name, p in self.params.items():
            p.requires_grad = name.startswith(prefixes)

    def parameter_hash(self, prefix: str = "") -> str:
        """SHA-256 hex digest of the names, dtypes, shapes and raw bytes of
        the parameters under ``prefix``, in name order: the same in every
        process, so it can be logged and compared across runs."""
        h = hashlib.sha256()
        for name in sorted(n for n in self.params if n.startswith(prefix)):
            arr = self.params[name].data
            h.update(repr((name, arr.dtype.str, arr.shape)).encode() + arr.tobytes())
        return h.hexdigest()

    def total_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())


def adam_step(store: ParamStore, lr: float, beta1: float = 0.0,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update over the trainable parameters.

    Applies to parameters with ``requires_grad`` set. A trainable parameter
    without a gradient is a contract violation and raises. Gradients are
    left in place; the caller zeroes them explicitly.

    The update works in place, in the moments, the parameter and one
    scratch buffer per parameter (two halves, ``num`` and ``den``). For a
    gradient of the parameter's dtype it makes the same float operations on
    the same operands, in the same dtype, as the textbook expression

        m = beta1*m + (1 - beta1)*g;  v = beta2*v + (1 - beta2)*(g*g)
        p -= lr*(m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)

    so its results are bit for bit those of that expression. Every
    temporary is written with ``out=``: on 0-d arrays numpy returns a
    scalar otherwise.
    """
    for name, p in store.params.items():
        if not p.requires_grad:
            continue
        if p.grad is None:
            raise RuntimeError(f"adam_step: trainable parameter '{name}' has no gradient")
        state = store.adam_state.get(name)
        if state is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
            state = [m, v, 0]
            store.adam_state[name] = state
        m, v, t = state
        t += 1
        g = p.grad
        scratch = np.empty((2,) + p.data.shape, p.data.dtype)
        num, den = scratch[0, ...], scratch[1, ...]     # arrays, also for a 0-d p
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=num)
        v *= beta2
        v += np.multiply(np.multiply(g, g, out=den), 1.0 - beta2, out=den)
        np.multiply(np.divide(m, 1.0 - beta1 ** t, out=num), lr, out=num)
        np.add(np.sqrt(np.divide(v, 1.0 - beta2 ** t, out=den), out=den), eps, out=den)
        p.data -= np.divide(num, den, out=num)
        state[2] = t


def optimize(store: ParamStore, lr: float, clip_norm: float | None = None) -> None:
    """One optimizer step on the gradients already accumulated in the
    trainable parameters' ``.grad``.

    Rescales the gradients when their global L2 norm (accumulated in
    float64) exceeds ``clip_norm``, applies ``adam_step`` with its default
    betas and eps, and zeroes every gradient.
    """
    if clip_norm is not None:
        grads = [p.grad for p in store.params.values()
                 if p.requires_grad and p.grad is not None]
        norm = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        if norm > clip_norm:
            for g in grads:
                g *= clip_norm / (norm + 1e-12)
    adam_step(store, lr)
    store.zero_grads()
