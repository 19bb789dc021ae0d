"""Supervised classifier training and the GAN-augmentation study.

The study trains the 3D CNN twice on half-resolution phantoms: once on
real volumes only, once on the same real set mixed with class-conditional
GAN samples at a 20/80 generated/real ratio whose class proportions track
the real set. Both classifiers are evaluated on one held-out real test
set and the accuracies are reported side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .inference import generate_full
from .networks import NetConfig, build_classifier
from .optim import ParamStore, optimize
from .tensor import Tensor, no_grad
from .training import downsample_volume


@dataclass
class ClassifierState:
    net: object
    store: ParamStore
    rng: np.random.Generator
    step: int = 0


def build_classifier_state(cfg: NetConfig, seed: int, n_classes: int = 5) -> ClassifierState:
    store = ParamStore()
    rng = np.random.default_rng(seed)
    net = build_classifier(cfg, n_classes=n_classes).build(store, rng)
    return ClassifierState(net=net, store=store, rng=rng)


def classifier_train(state: ClassifierState, volumes: np.ndarray, labels: np.ndarray,
                     steps: int, lr: float = 1e-4, batch_size: int = 8) -> list:
    """Cross-entropy training; volumes are classifier-resolution (D, H, W)."""
    losses = []
    n = len(volumes)
    state.store.train_only("cls/")
    for _ in range(steps):
        idx = state.rng.choice(n, size=min(batch_size, n), replace=False)
        loss = None
        for i in idx:
            logits = state.net(Tensor(volumes[i][None]), training=True)
            term = T.cross_entropy_logits(logits, int(labels[i]))
            loss = term if loss is None else T.add(loss, term)
        loss = T.mul(loss, 1.0 / len(idx))
        losses.append(loss.item())
        optimize(state.store, loss, lr)
        state.step += 1
    return losses


def classifier_accuracy(state: ClassifierState, volumes: np.ndarray,
                        labels: np.ndarray) -> float:
    correct = 0
    with no_grad():
        for v, y in zip(volumes, labels):
            logits = state.net(Tensor(v[None]), training=False).data
            correct += int(np.argmax(logits) == y)
    return correct / len(volumes)


def match_class_counts(real_labels, n_generated: int, n_classes: int = 5):
    """Generated-per-class counts proportional to the real label histogram
    (largest-remainder rounding keeps every class within one sample)."""
    real_labels = np.asarray(real_labels)
    hist = np.bincount(real_labels, minlength=n_classes).astype(np.float64)
    frac = hist / hist.sum() * n_generated
    counts = np.floor(frac).astype(int)
    rem = n_generated - counts.sum()
    order = np.argsort(-(frac - counts))
    for k in order[:rem]:
        counts[k] += 1
    return counts


def augment_study(cfg: NetConfig, nets, train_vols: np.ndarray, train_labels,
                  test_vols: np.ndarray, test_labels, seed: int,
                  classifier_steps: int = 400, generated_fraction: float = 0.2,
                  lr: float = 1e-4, batch_size: int = 8) -> dict:
    """Train baseline and GAN-augmented classifiers; report both accuracies.

    ``nets`` must be a class-conditional model set (its samples supply the
    augmentation); volumes come in at full resolution and are halved for
    the classifier.
    """
    if not cfg.num_classes:
        raise ValueError("augmentation study needs a class-conditional checkpoint")
    rng = np.random.default_rng(seed)
    half = np.stack([downsample_volume(v, 2) for v in train_vols])
    half_test = np.stack([downsample_volume(v, 2) for v in test_vols])
    train_labels = np.asarray(train_labels)

    base = build_classifier_state(cfg, seed=seed)
    classifier_train(base, half, train_labels, classifier_steps, lr=lr,
                     batch_size=batch_size)
    acc_base = classifier_accuracy(base, half_test, test_labels)

    n_gen = int(round(len(train_vols) * generated_fraction / (1.0 - generated_fraction)))
    counts = match_class_counts(train_labels, n_gen, n_classes=cfg.num_classes)
    gen_vols, gen_labels = [], []
    for k, cnt in enumerate(counts):
        for _ in range(cnt):
            z = rng.standard_normal(cfg.latent_dim).astype(np.float32)
            vol = generate_full(nets, z, c=k)[0]
            gen_vols.append(downsample_volume(vol, 2))
            gen_labels.append(k)
    aug_vols = np.concatenate([half, np.stack(gen_vols)]) if gen_vols else half
    aug_labels = np.concatenate([train_labels, np.asarray(gen_labels, dtype=int)])

    aug = build_classifier_state(cfg, seed=seed + 1)
    classifier_train(aug, aug_vols, aug_labels, classifier_steps, lr=lr,
                     batch_size=batch_size)
    acc_aug = classifier_accuracy(aug, half_test, test_labels)

    return {
        "baseline_accuracy": acc_base,
        "augmented_accuracy": acc_aug,
        "n_real": len(train_vols),
        "n_generated": int(sum(counts)),
        "generated_class_counts": counts.tolist(),
    }


def study_table(result: dict) -> str:
    lines = ["setting\taccuracy",
             f"baseline\t{result['baseline_accuracy']:.4f}",
             f"augmented\t{result['augmented_accuracy']:.4f}"]
    return "\n".join(lines)
