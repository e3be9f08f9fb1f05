"""A small sum-aggregation graph classifier with explicit backpropagation.

The parameter record is a plain ordered dict of named float64 matrices; it
is the unit that the federated protocol trains, compresses and aggregates.
A ``SparseParams`` record holds only a record's nonzero entries, as
ascending positions over its tensors flattened in dict order and one value
per position; names and shapes come from a dense record ``like`` it.  The
private channel is held that way, and ``combine`` adds it to a dense one.
Layer stack: feature MLP, two message-passing layers (self plus neighbour
sum), mean readout, linear head.  Every pass runs on a whole
``graphdata.GraphBatch``, which a dataset's flat arrays (or a subset's, for
a minibatch) are gathered into; nothing here reads per-graph records.  A
pass runs on all the batch's graphs at once, in its node-count order: one
matmul per layer over the stacked nodes, one stacked adjacency matmul per
node-count group, and one ``np.add.reduceat`` over the graphs' consecutive
node rows for the readout.  Losses and gradients are means over the batch,
so its order does not matter to callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np

from .errors import ShapeMismatch
from .graphdata import GraphBatch, GraphDataset

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


@dataclass(frozen=True)
class SparseParams:
    """A parameter record's kept entries: ascending int64 positions over its
    tensors flattened in dict order, and one float64 value per position."""

    positions: np.ndarray
    values: np.ndarray


def _flatten(p: ModelParams) -> np.ndarray:
    """A record's tensors raveled and concatenated in dict order, as a copy."""
    return np.concatenate([v.ravel() for v in p.values()])


def _unflatten(flat: np.ndarray, like: ModelParams) -> ModelParams:
    """``flat`` split into views shaped like ``like``'s tensors, in its order."""
    out: ModelParams = {}
    offset = 0
    for name, v in like.items():
        out[name] = flat[offset : offset + v.size].reshape(v.shape)
        offset += v.size
    return out


def nonzero_entries(p: ModelParams) -> SparseParams:
    """The nonzero entries of a dense record."""
    flat = _flatten(p)
    positions = np.flatnonzero(flat)
    return SparseParams(positions, flat[positions])


def densify(s: SparseParams, like: ModelParams) -> ModelParams:
    """``s`` as a fresh, writable dense record shaped like ``like``, zero
    where it holds no entry."""
    flat = np.zeros(sum(v.size for v in like.values()))
    flat[s.positions] = s.values
    return _unflatten(flat, like)


def params_finite(p: Union[ModelParams, SparseParams]) -> bool:
    if isinstance(p, SparseParams):
        return bool(np.isfinite(p.values).all())
    return all(np.isfinite(v).all() for v in p.values())


def check_congruent(a: ModelParams, b: ModelParams) -> None:
    if a.keys() != b.keys():
        raise ShapeMismatch(f"parameter names differ: {sorted(a)} vs {sorted(b)}")
    for k in a:
        if a[k].shape != b[k].shape:
            raise ShapeMismatch(f"{k}: {a[k].shape} vs {b[k].shape}")


def check_sparse(s: SparseParams, like: ModelParams) -> None:
    """Refuse a compact record that is not one of ``like``'s entries each at
    most once, in ascending order, with one float64 value apiece."""
    pos, size = s.positions, sum(v.size for v in like.values())
    if pos.dtype != np.int64 or pos.ndim != 1:
        raise ShapeMismatch(f"positions must be a 1-D int64 array, got {pos.dtype} {pos.shape}")
    if s.values.dtype != np.float64 or s.values.shape != pos.shape:
        raise ShapeMismatch(f"{s.values.size} {s.values.dtype} values for {pos.size} positions")
    if np.any(pos[1:] <= pos[:-1]):
        raise ShapeMismatch("positions must ascend, each at most once")
    if pos.size and (pos[0] < 0 or pos[-1] >= size):
        raise ShapeMismatch(f"a position lies outside the record's {size} entries")


def combine(w: ModelParams, s: SparseParams) -> ModelParams:
    """The dense record ``w`` plus the compact ``s``: a flat copy of ``w`` with
    ``s``'s values added at their positions, split back into ``w``'s tensors."""
    flat = _flatten(w)
    if s.positions.size and not 0 <= s.positions[0] <= s.positions[-1] < flat.size:
        raise ShapeMismatch(f"a position lies outside the record's {flat.size} entries")
    flat[s.positions] += s.values
    return _unflatten(flat, w)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _self_plus_neighbours(batch: GraphBatch, x: np.ndarray) -> np.ndarray:
    """Each node's row plus the sum of its neighbours' rows, one stacked
    matmul per node-count group.  Adjacency is symmetric, so the backward
    pass uses the same map.  The groups cover every row, so each group's
    product is written straight into one buffer, and ``x`` is added once."""
    d = x.shape[1]
    out = np.empty_like(x, order="C")  # C order keeps each group's rows a view
    for grp in batch.groups:
        block = x[grp.rows].reshape(-1, grp.n, d)
        np.matmul(grp.adj, block, out=out[grp.rows].reshape(-1, grp.n, d))
    out += x
    return out


def _forward_trace(p: ModelParams, batch: GraphBatch):
    x = batch.features
    if x.shape[1] != p["mlp_w"].shape[0]:
        raise ShapeMismatch(
            f"graph features have {x.shape[1]} columns, model expects "
            f"{p['mlp_w'].shape[0]}"
        )
    z0 = x @ p["mlp_w"] + p["mlp_b"]
    m1 = _self_plus_neighbours(batch, _relu(z0))
    z1 = m1 @ p["gnn1_w"] + p["gnn1_b"]
    m2 = _self_plus_neighbours(batch, _relu(z1))
    z2 = m2 @ p["gnn2_w"] + p["gnn2_b"]
    x2 = _relu(z2)
    pooled = np.add.reduceat(x2, batch.starts, axis=0) / batch.sizes[:, None]
    logits = pooled @ p["head_w"] + p["head_b"]
    return logits, (x, z0, m1, z1, m2, z2, pooled)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _summed_loss(log_probs: np.ndarray, labels: np.ndarray) -> float:
    """Cross-entropy summed graph after graph in batch (node-count) order,
    as a running total from 0.0 would be (so a zero loss is +0.0, not -0.0)."""
    picked = log_probs[np.arange(len(labels)), labels]
    return 0.0 - float(np.cumsum(picked)[-1])


def loss_and_grad(p: ModelParams, batch: GraphBatch) -> Tuple[float, GradSet]:
    """Mean cross-entropy over a batch and its gradients for every parameter."""
    logits, (x, z0, m1, z1, m2, z2, pooled) = _forward_trace(p, batch)
    log_probs = _log_softmax(logits)
    inv_b = 1.0 / len(batch)
    dlogits = np.exp(log_probs)
    dlogits[np.arange(len(batch)), batch.labels] -= 1.0
    dlogits *= inv_b

    grads: GradSet = {}
    grads["head_w"] = pooled.T @ dlogits
    grads["head_b"] = dlogits.sum(axis=0, keepdims=True)
    dpooled = dlogits @ p["head_w"].T
    # The mean readout passes 1/n of its graph's gradient to every node.
    dx2 = np.repeat(dpooled / batch.sizes[:, None], batch.sizes, axis=0)
    dz2 = np.where(z2 > 0, dx2, 0.0)
    grads["gnn2_w"] = m2.T @ dz2
    grads["gnn2_b"] = dz2.sum(axis=0, keepdims=True)
    dx1 = _self_plus_neighbours(batch, dz2 @ p["gnn2_w"].T)
    dz1 = np.where(z1 > 0, dx1, 0.0)
    grads["gnn1_w"] = m1.T @ dz1
    grads["gnn1_b"] = dz1.sum(axis=0, keepdims=True)
    dx0 = _self_plus_neighbours(batch, dz1 @ p["gnn1_w"].T)
    dz0 = np.where(z0 > 0, dx0, 0.0)
    grads["mlp_w"] = x.T @ dz0
    grads["mlp_b"] = dz0.sum(axis=0, keepdims=True)
    return _summed_loss(log_probs, batch.labels) * inv_b, {k: grads[k] for k in p}


def evaluate(p: ModelParams, data: GraphDataset) -> Tuple[float, float]:
    """(accuracy, mean cross-entropy loss); argmax ties go to the lowest class."""
    if len(data) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    batch = data.batch
    logits, _ = _forward_trace(p, batch)
    hits = int(np.count_nonzero(np.argmax(logits, axis=1) == batch.labels))
    return hits / len(data), _summed_loss(_log_softmax(logits), batch.labels) / len(data)
