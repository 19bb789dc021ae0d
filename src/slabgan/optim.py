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

from .tensor import Tensor, backward


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

    def names(self):
        return list(self.params.keys())

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

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
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        p.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.data.dtype)
        state[2] = t


def optimize(store: ParamStore, loss: Tensor, lr: float, clip_norm: float | None = None) -> None:
    """One optimizer step on ``loss`` for the trainable parameters.

    Runs ``backward``, rescales the gradients when their global L2 norm
    (accumulated in float64) exceeds ``clip_norm``, applies ``adam_step``
    with its default betas and eps, and zeroes every gradient.
    """
    backward(loss)
    if clip_norm is not None:
        grads = [p.grad for p in store.params.values()
                 if p.requires_grad and p.grad is not None]
        norm = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        if norm > clip_norm:
            for g in grads:
                g *= clip_norm / (norm + 1e-12)
    adam_step(store, lr)
    store.zero_grads()
