"""A small sum-aggregation graph classifier with explicit backpropagation.

The parameter record is a plain ordered dict of named float64 matrices; it
is the unit that the federated protocol trains, compresses and aggregates.
Layer stack: feature MLP, two message-passing layers (self plus neighbour
sum), mean readout, linear head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import ShapeMismatch
from .graphdata import Graph, GraphDataset

ModelParams = Dict[str, np.ndarray]
GradSet = Dict[str, np.ndarray]


@dataclass(frozen=True)
class ArchConfig:
    """Shape of the classifier; two message-passing layers are fixed."""

    feature_dim: int
    hidden: int = 16
    classes: int = 2

    def __post_init__(self):
        if min(self.feature_dim, self.hidden, self.classes) < 1:
            raise ValueError("feature_dim, hidden and classes must all be >= 1")


def param_shapes(cfg: ArchConfig) -> Dict[str, Tuple[int, int]]:
    d, h, c = cfg.feature_dim, cfg.hidden, cfg.classes
    return {
        "mlp_w": (d, h),
        "mlp_b": (1, h),
        "gnn1_w": (h, h),
        "gnn1_b": (1, h),
        "gnn2_w": (h, h),
        "gnn2_b": (1, h),
        "head_w": (h, c),
        "head_b": (1, c),
    }


def init_params(cfg: ArchConfig, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    params: ModelParams = {}
    for name, (rows, cols) in param_shapes(cfg).items():
        if name.endswith("_b"):
            params[name] = np.zeros((rows, cols))
        else:
            bound = 1.0 / math.sqrt(rows)
            params[name] = rng.uniform(-bound, bound, size=(rows, cols))
    return params


def zeros_like_params(p: ModelParams) -> ModelParams:
    return {k: np.zeros_like(v) for k, v in p.items()}


def clone_params(p: ModelParams) -> ModelParams:
    return {k: v.copy() for k, v in p.items()}


def params_finite(p: ModelParams) -> bool:
    return all(np.isfinite(v).all() for v in p.values())


def check_congruent(a: ModelParams, b: ModelParams) -> None:
    if a.keys() != b.keys():
        raise ShapeMismatch(f"parameter names differ: {sorted(a)} vs {sorted(b)}")
    for k in a:
        if a[k].shape != b[k].shape:
            raise ShapeMismatch(f"{k}: {a[k].shape} vs {b[k].shape}")


def combine(w: ModelParams, s: ModelParams) -> ModelParams:
    """Elementwise sum of two congruent parameter records."""
    check_congruent(w, s)
    return {k: w[k] + s[k] for k in w}


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _forward_trace(p: ModelParams, g: Graph):
    x = g.features
    if x.shape[1] != p["mlp_w"].shape[0]:
        raise ShapeMismatch(
            f"graph features have {x.shape[1]} columns, model expects "
            f"{p['mlp_w'].shape[0]}"
        )
    a = g.adj
    z0 = x @ p["mlp_w"] + p["mlp_b"]
    x0 = _relu(z0)
    m1 = x0 + a @ x0
    z1 = m1 @ p["gnn1_w"] + p["gnn1_b"]
    x1 = _relu(z1)
    m2 = x1 + a @ x1
    z2 = m2 @ p["gnn2_w"] + p["gnn2_b"]
    x2 = _relu(z2)
    pooled = x2.mean(axis=0)
    logits = pooled @ p["head_w"] + p["head_b"][0]
    return logits, (x, a, z0, x0, m1, z1, x1, m2, z2, x2, pooled)


def forward(p: ModelParams, g: Graph) -> np.ndarray:
    """Class logits for one graph (length C)."""
    logits, _ = _forward_trace(p, g)
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - math.log(np.exp(shifted).sum())


def loss_and_grad(p: ModelParams, batch: Sequence[Graph]) -> Tuple[float, GradSet]:
    """Mean cross-entropy over a batch and its gradients for every parameter."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    grads = zeros_like_params(p)
    total = 0.0
    inv_b = 1.0 / len(batch)
    for g in batch:
        logits, trace = _forward_trace(p, g)
        x, a, z0, x0, m1, z1, x1, m2, z2, x2, pooled = trace
        log_probs = _log_softmax(logits)
        total -= log_probs[g.label]
        dlogits = np.exp(log_probs)
        dlogits[g.label] -= 1.0
        dlogits *= inv_b

        grads["head_w"] += np.outer(pooled, dlogits)
        grads["head_b"] += dlogits[None, :]
        dpooled = p["head_w"] @ dlogits
        dx2 = np.broadcast_to(dpooled / g.n, x2.shape)
        dz2 = np.where(z2 > 0, dx2, 0.0)
        grads["gnn2_w"] += m2.T @ dz2
        grads["gnn2_b"] += dz2.sum(axis=0, keepdims=True)
        dm2 = dz2 @ p["gnn2_w"].T
        dx1 = dm2 + a @ dm2  # adjacency is symmetric
        dz1 = np.where(z1 > 0, dx1, 0.0)
        grads["gnn1_w"] += m1.T @ dz1
        grads["gnn1_b"] += dz1.sum(axis=0, keepdims=True)
        dm1 = dz1 @ p["gnn1_w"].T
        dx0 = dm1 + a @ dm1
        dz0 = np.where(z0 > 0, dx0, 0.0)
        grads["mlp_w"] += x.T @ dz0
        grads["mlp_b"] += dz0.sum(axis=0, keepdims=True)
    return total * inv_b, grads


def evaluate(p: ModelParams, data: GraphDataset) -> Tuple[float, float]:
    """(accuracy, mean cross-entropy loss); argmax ties go to the lowest class."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    hits = 0
    total = 0.0
    for g in data.graphs:
        logits = forward(p, g)
        log_probs = _log_softmax(logits)
        total -= log_probs[g.label]
        if int(np.argmax(logits)) == g.label:
            hits += 1
    return hits / len(data), total / len(data)
