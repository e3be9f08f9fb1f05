"""Federated round state machines.

Implements the dual-channel protocol: a shared channel trained with a
drift-correction term, a private sparse channel fine-tuned against the
global view, sample-weighted aggregation, quantized and low-rank transfers,
probabilistic communication skipping, client sampling and dropout.
``run_round`` is the only round function; the weighted-average (FedAvg)
and proximal (FedProx) baselines are settings of its knobs, which
``preset`` resolves from ``run.algorithm``, both links' schemes included.

``ClientConfig`` and ``ServerConfig`` are the ``client`` and ``server``
sections of a config file, as ``harness.parse_config`` fills them; its
``_validate`` is their one range check.  The private channel never
travels.  Each client holds it as the entries the sparsifier keeps, a
``gnn.SparseParams`` over its shared channel's tensors, and densifies it
only for the step of fine-tuning that updates it.

Both links carry differences from the last decoded broadcast, which the
server holds as ``ServerState.theta`` and every client adopts on a
communicated round; it starts as the initial model on both ends.  An
uplink carries one tensor per parameter, the drift-corrected step
``w - theta - eta * h`` (SCAFFOLD's server update, Karimireddy et al.
2020, combined on the client); the server takes the steps' sample-weighted
mean, decoding one uplink at a time against ``theta``'s names and shapes
into a sum shaped like it, and the downlink carries
that mean, a zero difference when no uplink arrived.  The low-rank downlink
coder is the one place that truncates: it cuts each weight matrix of the
difference at the relative singular-value cutoff ``tau_lowrank`` where it
sends factors (at 0, a full-rank matrix travels as one quantized segment),
so ``theta`` is not rank-limited.  A quantizer's error scales with the norm
of what it encodes, and these differences are far smaller than the models
(DIANA, Mishchenko et al. 2019; EF21, Richtárik et al. 2021).

Clients and the server are mutable state records; round operations mutate
them in place and are deterministic given the states' RNG streams.  A
client's global view is its shared channel as the round starts, passed to
the round's steps and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import compress, gnn, linalg
from .errors import DivergenceDetected
from .gnn import ModelParams
from .graphdata import GraphBatch, GraphDataset


@dataclass
class ClientConfig:
    """The ``client`` config section, as parsed and as the round runs it."""

    eta: float = 0.01
    alpha: float = 0.6
    nu: float = 0.5
    sparsifier: str = "threshold"  # "threshold" or "topk"
    cut_sparse: float = 0.001
    beta: float = 0.1
    local_epochs: int = 1
    finetune_epochs: int = 1
    batch_size: int = 0  # 0 means full batch
    use_correction: bool = True
    proxskip_h: bool = False
    mu_prox: float = 0.01


@dataclass
class ServerConfig:
    """The ``server`` config section, as parsed and as the round runs it."""

    p: float = 0.5
    rho: float = 1.0
    tau_lowrank: float = 0.0001
    r_bits: int = 4
    dropout_a: float = 0.0  # Beta(a, b) drop rate; both zero disables dropout
    dropout_b: float = 0.0
    bandwidth_mbps: float = 100.0
    latency_ms: float = 20.0


ALGORITHMS = ("cefgl", "fedavg", "fedprox")


def preset(
    algorithm: str, client_cfg: ClientConfig, server_cfg: ServerConfig
) -> Tuple[ClientConfig, ServerConfig, str, str]:
    """Copies of the sections as ``run.algorithm`` runs them, then its two links' schemes.

    FedProx's step ``w - eta*(g + mu*(w - theta))`` is the shared-channel
    step with h = 0 and alpha = ``mu_prox``; FedAvg's has no pull.
    """
    if algorithm == "cefgl":
        up, down = compress.SCHEME_QUANTIZED, compress.SCHEME_LOWRANK
        return replace(client_cfg), replace(server_cfg), up, down
    alpha = {"fedavg": 0.0, "fedprox": client_cfg.mu_prox}[algorithm]
    client_cfg = replace(client_cfg, alpha=alpha, finetune_epochs=0, use_correction=False)
    return client_cfg, replace(server_cfg, p=1.0), compress.SCHEME_DENSE, compress.SCHEME_DENSE


def apply_sparsifier(params: ModelParams, cfg: ClientConfig) -> gnn.SparseParams:
    """The nonzero entries the private-channel rule keeps, as a compact record.

    ``threshold`` keeps entries unless ``|v| < cut_sparse``, so NaN and Inf
    survive for the finiteness check to catch; ``topk`` keeps the
    ``ceil(beta * size)`` largest nonzero magnitudes across all matrices, the
    smaller flat index (matrices in dict order) winning ties.
    """
    flat = np.concatenate([v.ravel() for v in params.values()])
    if cfg.sparsifier == "threshold":
        # |v| < cut without a float temporary; NaN fails both tests.
        small = (flat > -cfg.cut_sparse) & (flat < cfg.cut_sparse)
        positions = np.flatnonzero(~small & (flat != 0))
    else:
        nonzero = np.flatnonzero(flat)
        # Descending magnitude, then ascending flat index.
        order = nonzero[np.lexsort((nonzero, -np.abs(flat[nonzero])))]
        positions = np.sort(order[: math.ceil(cfg.beta * flat.size)])
    return gnn.SparseParams(positions, flat[positions])


@dataclass
class ClientState:
    """One client's channels, correction term and data.

    The private channel ``s`` is held as its kept entries; ``w`` gives its
    names and shapes.
    """

    id: int
    w: ModelParams
    s: gnn.SparseParams
    h: ModelParams
    train: GraphDataset
    test: GraphDataset
    cfg: ClientConfig
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        gnn.check_congruent(self.w, self.h)
        gnn.check_sparse(self.s, self.w)


@dataclass
class ServerState:
    theta: ModelParams  # the last decoded broadcast, as every client holds it
    cfg: ServerConfig = field(default_factory=ServerConfig)
    uplink_scheme: str = compress.SCHEME_QUANTIZED  # both set by ``preset``
    downlink_scheme: str = compress.SCHEME_LOWRANK
    t: int = 0
    coin_rng: np.random.Generator = field(default_factory=np.random.default_rng)
    sampling_rng: np.random.Generator = field(default_factory=np.random.default_rng)
    dropout_rng: np.random.Generator = field(default_factory=np.random.default_rng)


@dataclass
class RoundRecord:
    """Metrics for one round; bits are zero whenever communication is skipped.

    ``train_loss`` holds, per client in id order, the mean of the losses its
    fine-tune steps took this round at view + s, each before its step; a
    client that runs no fine-tune step reports its local steps' mean loss at
    w instead.  A client that took no step this round has None.

    The low-rank ratios are those of the downlinked difference's factorable
    matrices (no unit dimension), where a matrix sent plain counts as full
    rank and rows * cols values; they are None when no low-rank body was
    sent.
    """

    t: int
    communicated: bool
    participants: List[int]
    dropped: List[int]
    uplink_bits: int
    downlink_bits: int
    train_loss: List[Optional[float]]
    test_accuracy: List[float]
    wall_time: float
    sparsity_ratio: float
    lowrank_rank_ratio: Optional[float] = None
    lowrank_param_ratio: Optional[float] = None


# ---------------------------------------------------------------------------
# Parameter-update steps


def lowrank_channel_step(
    w: ModelParams,
    grads: ModelParams,
    h: ModelParams,
    theta: ModelParams,
    eta: float,
    alpha: float,
) -> ModelParams:
    """One shared-channel step: drift-corrected gradient plus global pull."""
    return {k: w[k] - eta * (grads[k] - h[k]) + eta * alpha * (theta[k] - w[k]) for k in w}


def _batches(c: ClientState) -> Iterator[GraphBatch]:
    """The steps of one epoch: the train split's cached batch, or with a
    batch size below the split's the batch of each slice of a fresh
    permutation of it."""
    n = len(c.train)
    if not n:  # data-less clients sit rounds out
        return
    size = c.cfg.batch_size
    if size <= 0 or size >= n:
        yield c.train.batch
        return
    order = c.rng.permutation(n)
    for start in range(0, n, size):
        yield GraphBatch(c.train.subset(order[start : start + size]))


def _check_finite(params: ModelParams, who: str) -> None:
    if not gnn.params_finite(params):
        raise DivergenceDetected(f"{who} produced non-finite parameters (lower eta)")


def local_train_round(c: ClientState, view: ModelParams) -> List[float]:
    """Run the configured local epochs on the shared channel, pulled toward
    the global view; returns each step's loss at w before the step, in step
    order."""
    losses = []
    for _ in range(c.cfg.local_epochs):
        for batch in _batches(c):
            loss, grads = gnn.loss_and_grad(c.w, batch)
            c.w = lowrank_channel_step(c.w, grads, c.h, view, c.cfg.eta, c.cfg.alpha)
            losses.append(loss)
        _check_finite(c.w, f"client {c.id} local training")
    return losses


def finetune_sparse(c: ClientState, view: ModelParams) -> List[float]:
    """Fine-tune the private channel at (global view + private), then re-sparsify.

    The shared channel stays frozen; an L1 subgradient (elementwise sign,
    zero at zero) scaled by nu joins every step.  Returns each step's loss
    at view + s before the step, in step order.
    """
    losses = []
    for _ in range(c.cfg.finetune_epochs):
        for batch in _batches(c):
            # d(loss at view + s)/ds equals the gradient at the sum.
            loss, grads = gnn.loss_and_grad(gnn.combine(view, c.s), batch)
            losses.append(loss)
            # s - eta * (g + nu * sign(s)), worked out in place on a dense copy
            # of s, which leaves one temporary per tensor, not five.
            s = gnn.densify(c.s, view)
            for k, v in s.items():
                step = np.sign(v)
                step *= c.cfg.nu
                step += grads[k]
                step *= c.cfg.eta
                v -= step
            c.s = apply_sparsifier(s, c.cfg)
        _check_finite(c.s, f"client {c.id} fine-tuning")
    return losses


def update_correction(c: ClientState, view: ModelParams, steps: int) -> ClientState:
    """Accumulate (global view - new shared channel) / (eta * steps) into the
    correction term, ``steps`` being the local steps of this round.

    Every local step subtracts eta * h, so dividing by eta alone would let h
    grow geometrically with several steps per round; SCAFFOLD's control
    variates (Karimireddy et al. 2020) divide by both.  With no steps h
    stays as it is.
    """
    if steps:
        scale = c.cfg.eta * steps
        c.h = {k: c.h[k] + (view[k] - c.w[k]) / scale for k in c.h}
    _check_finite(c.h, f"client {c.id} correction update")
    return c


def client_uplink(
    c: ClientState, anchor: ModelParams, scheme: str, r_bits: int
) -> compress.CompressedPayload:
    """The shared channel's drift-corrected step since the last broadcast,
    ``w - anchor - eta * h`` with the client's own eta, one tensor per
    parameter in ``anchor``'s order, encoded under ``scheme``.

    The server uses the change and the correction term only in this
    combination, so they travel as one tensor.  The anchor is the broadcast
    both ends hold.  The private channel never leaves the client.
    """
    step = {k: c.w[k] - anchor[k] - c.cfg.eta * c.h[k] for k in anchor}
    return compress.encode_payload(step, scheme, r=r_bits)


def _aggregate(
    theta: ModelParams,
    payloads: Sequence[compress.CompressedPayload],
    sample_sizes: Sequence[int],
) -> ModelParams:
    """The sample-size-weighted mean of the uplinked steps.

    Uplinks are decoded one at a time and folded, in payload order, into a
    sum that starts from zeros shaped like the broadcast ``theta``, so the
    server holds at most one decoded uplink.  Each is decoded against
    ``theta``, so one encoded from tensors of other names or shapes raises
    MalformedPayload.
    """
    if len(payloads) == 0:
        raise ValueError("need at least one payload to aggregate")
    if len(payloads) != len(sample_sizes):
        raise ValueError("payloads and sample_sizes must align")
    total = float(sum(sample_sizes))
    if total > 0:
        weights = [size / total for size in sample_sizes]
    else:  # every participant is data-less; fall back to a plain mean
        weights = [1.0 / len(payloads)] * len(payloads)
    step = gnn.zeros_like_params(theta)
    for weight, payload in zip(weights, payloads):
        decoded = compress.decode_payload(payload, theta)
        for name, acc in step.items():
            linalg.weighted_sum([(weight, decoded[name])], out=acc)
    _check_finite(step, "server aggregation")
    return step


def _lowrank_ratios(
    payload: compress.CompressedPayload, tensors: ModelParams
) -> Tuple[Optional[float], Optional[float]]:
    """Retained-rank and sent-value fractions of the factorable matrices in
    ``payload``; None for both when it has none.

    A matrix sent as factors counts k * (rows + cols) values, one sent plain
    counts rows * cols, so the value fraction never exceeds 1."""
    if not payload.ranks:
        return None, None
    shapes = [tensors[name].shape for name in payload.ranks]
    ranks = list(payload.ranks.values())
    kept = sum(min(k * (rows + cols), rows * cols) for k, (rows, cols) in zip(ranks, shapes))
    return (
        sum(ranks) / sum(min(shape) for shape in shapes),
        kept / sum(rows * cols for rows, cols in shapes),
    )


def dropout_filter(
    participants: Sequence[int], beta_a: float, beta_b: float, rng: np.random.Generator
) -> List[int]:
    """Drop each participant with one shared Beta(a, b) drop-rate draw per round."""
    if beta_a <= 0 or beta_b <= 0:
        raise ValueError("Beta parameters must be > 0")
    q = rng.beta(beta_a, beta_b)
    return [cid for cid in participants if rng.random() >= q]


def _sample_participants(server: ServerState, ids: Sequence[int]) -> List[int]:
    # The ceiling of the decimal product: 100 * 0.07 is 7.000000000000001 in floats.
    m = math.ceil(Fraction(str(server.cfg.rho)) * len(ids))
    picked = server.sampling_rng.choice(np.asarray(ids), size=m, replace=False)
    return sorted(int(i) for i in picked)


def _round_metrics(
    clients: Sequence[ClientState], train_loss: Dict[int, float]
) -> Tuple[List[Optional[float]], List[float], float]:
    """Per-client train loss, accuracy on held-out data at the personalized
    model (shared channel + private channel), and the mean density of the
    private channels.

    ``train_loss`` maps each client that took a step this round to its mean
    step loss; the others report None.  Tiny shards fall back from the test
    split to the train split; clients holding no data at all score zero.
    """
    accs, density = [], []
    for c in clients:
        held_out = c.test if len(c.test) else c.train
        acc = gnn.evaluate(gnn.combine(c.w, c.s), held_out)[0] if len(held_out) else 0.0
        accs.append(acc)
        density.append(c.s.positions.size / sum(v.size for v in c.w.values()))
    return [train_loss.get(c.id) for c in clients], accs, float(np.mean(density))


def _wall_time(cfg: ServerConfig, bits: int, messages: int) -> float:
    return bits / (cfg.bandwidth_mbps * 1e6) + cfg.latency_ms / 1e3 * messages


def run_round(server: ServerState, clients: Sequence[ClientState]) -> RoundRecord:
    """One full protocol round; mutates the server and client states.

    Coin first, then sampling, then dropout.  Survivors train both channels
    against their view (the shared channel as the round starts) and update
    their correction terms.  On a communicated round they uplink their
    drift-corrected steps from the last broadcast; the server encodes their
    weighted mean, and it and every client move the broadcast by the
    decoded mean and adopt it as their shared channel.  On a skipped round
    nothing is encoded or billed and each client keeps its own shared
    channel.
    """
    cfg = server.cfg
    clients = sorted(clients, key=lambda c: c.id)
    communicate = bool(server.coin_rng.random() < cfg.p)
    sampled = _sample_participants(server, [c.id for c in clients])
    if cfg.dropout_a > 0:
        survivors = dropout_filter(
            sampled, cfg.dropout_a, cfg.dropout_b, rng=server.dropout_rng
        )
    else:
        survivors = list(sampled)
    dropped = sorted(set(sampled) - set(survivors))
    by_id = {c.id: c for c in clients}

    train_loss = {}
    for cid in survivors:
        c = by_id[cid]
        view = c.w  # every step rebinds c.w, so this stays the round-start model
        local = local_train_round(c, view)
        tuned = finetune_sparse(c, view)
        if c.cfg.use_correction and not c.cfg.proxskip_h:
            update_correction(c, view, len(local))
        # The loss at the personalized model: view + s where the private
        # channel trains, else w, which is then the whole model.
        losses = tuned or local
        if losses:
            train_loss[cid] = sum(losses) / len(losses)

    rank_ratio = param_ratio = None
    if communicate:
        anchor = server.theta
        payloads = [
            client_uplink(by_id[cid], anchor, server.uplink_scheme, cfg.r_bits)
            for cid in survivors
        ]
        if payloads:
            delta = _aggregate(anchor, payloads, [len(by_id[cid].train) for cid in survivors])
        else:  # nothing arrived: the broadcast is a zero delta
            delta = gnn.zeros_like_params(anchor)
        downlink = compress.encode_payload(
            delta,
            server.downlink_scheme,
            r=cfg.r_bits,
            tau_lowrank=cfg.tau_lowrank,
        )
        rank_ratio, param_ratio = _lowrank_ratios(downlink, delta)
        decoded = compress.decode_payload(downlink, anchor)
        with np.errstate(over="ignore"):  # an overflow is reported as divergence
            server.theta = {k: anchor[k] + decoded[k] for k in anchor}
        _check_finite(server.theta, "server aggregation")
        # Every client adopts these arrays, read-only: each step rebinds c.w.
        for v in server.theta.values():
            v.setflags(write=False)
        uplink_bits = sum(compress.payload_bits(p) for p in payloads)
        downlink_bits = len(clients) * compress.payload_bits(downlink)
        messages = len(survivors) + len(clients)
        for c in clients:
            if c.cfg.use_correction and c.cfg.proxskip_h and c.id in survivors:
                scale = cfg.p / c.cfg.eta
                c.h = {k: c.h[k] + scale * (server.theta[k] - c.w[k]) for k in c.h}
                _check_finite(c.h, f"client {c.id} correction update")
            c.w = dict(server.theta)
    else:
        uplink_bits = downlink_bits = messages = 0

    losses, accs, density = _round_metrics(clients, train_loss)
    record = RoundRecord(
        t=server.t,
        communicated=communicate,
        participants=list(survivors),
        dropped=dropped,
        uplink_bits=uplink_bits,
        downlink_bits=downlink_bits,
        train_loss=losses,
        test_accuracy=accs,
        wall_time=_wall_time(cfg, uplink_bits + downlink_bits, messages),
        sparsity_ratio=density,
        lowrank_rank_ratio=rank_ratio,
        lowrank_param_ratio=param_ratio,
    )
    server.t += 1
    return record
