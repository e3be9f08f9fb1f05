"""Helpers shared by the test modules."""

import numpy as np

from cefgl import gnn


def clone_params(p):
    """A writable copy of a parameter record."""
    return {k: v.copy() for k, v in p.items()}


def compact(p):
    """The nonzero entries of a dense record, as a client holds its private
    channel."""
    flat = np.concatenate([v.ravel() for v in p.values()])
    positions = np.flatnonzero(flat).astype(np.int64)
    return gnn.SparseParams(positions, flat[positions])


def dense(s, like):
    """A compact record as a writable dense one shaped like ``like``, zero
    where it holds no entry; the tests read the private channel through it."""
    flat = np.zeros(sum(v.size for v in like.values()))
    flat[s.positions] = s.values
    out, offset = {}, 0
    for name, v in like.items():
        out[name] = flat[offset : offset + v.size].reshape(v.shape)
        offset += v.size
    return out


def plain_fedavg_reference(theta0, clients, rounds):
    """Global model after each round of plain weighted averaging: every
    client runs full-batch SGD from theta, and the server takes the
    sample-size-weighted mean.  No coin, codec or records."""
    theta = clone_params(theta0)
    total = sum(len(c.train) for c in clients)
    history = []
    for _ in range(rounds):
        local = []
        for c in clients:
            w = clone_params(theta)
            for _ in range(c.cfg.local_epochs):
                _, grads = gnn.loss_and_grad(w, c.train.graphs)
                w = {k: w[k] - c.cfg.eta * grads[k] for k in w}
            local.append((len(c.train) / total, w))
        theta = {k: sum(wt * w[k] for wt, w in local) for k in theta}
        history.append(theta)
    return history
