"""Experiment orchestration: flat-file configs, single runs, sweeps,
metrics persistence and checkpointing.

Config files are flat ``section.key = value`` lines (``#`` comments).  A run
writes ``rounds.jsonl`` (one record per round, byte-deterministic for fixed
seeds), ``summary.csv`` and ``checkpoint.bin`` into its output directory.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import pickle
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from . import fedcore, gnn, graphdata
from .errors import ConfigError, IoError, NonFiniteInput, VersionMismatch
from .fedcore import ALGORITHMS, ClientConfig, ClientState, RoundRecord, ServerConfig, ServerState

log = logging.getLogger("cefgl")

SEED_ENV_VAR = "CEFGL_SEED"
CHECKPOINT_MAGIC = b"CFCK"
CHECKPOINT_VERSION = 6

ABLATIONS = ("full", "w_only", "s_only")
SWEEP_AXES = {
    "tau_lowrank": ("server", "tau_lowrank"),
    "cut_sparse": ("client", "cut_sparse"),
    "beta": ("client", "beta"),
    "p": ("server", "p"),
    "r_bits": ("server", "r_bits"),
}


@dataclass
class DataSection:
    source: str = "synth"  # "synth" or "tu"
    tu_path: str = ""
    n_graphs: int = 80
    motifs: str = "triangles,star"
    nodes_lo: int = 6
    nodes_hi: int = 10
    feature_dim: int = 4
    noise: float = 0.8
    partition: str = "iid"  # iid | label_skew | cross_dataset
    skew: float = 0.3
    train_frac: float = 0.8
    val_frac: float = 0.1
    test_frac: float = 0.1


@dataclass
class RunSection:
    algorithm: str = "cefgl"
    rounds: int = 200
    clients: int = 10
    hidden: int = 16
    ablation: str = "full"
    out_dir: str = "out"


@dataclass
class SeedSection:
    data: int = 7
    init: int = 8
    coin: int = 9
    sampling: int = 10
    dropout: int = 11


@dataclass
class ExperimentConfig:
    data: DataSection = field(default_factory=DataSection)
    client: ClientConfig = field(default_factory=ClientConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    run: RunSection = field(default_factory=RunSection)
    seeds: SeedSection = field(default_factory=SeedSection)


def with_base_seed(cfg: ExperimentConfig, base: int) -> ExperimentConfig:
    """Copy of the config with all five seed streams derived from one base."""
    out = copy.deepcopy(cfg)
    out.seeds = SeedSection(
        data=base, init=base + 1, coin=base + 2, sampling=base + 3, dropout=base + 4
    )
    return out


def _coerce(raw: str, current, key: str):
    if isinstance(current, bool):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(current, int):
            return int(raw)
        if not isinstance(current, float):
            return raw
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {type(current).__name__}") from exc
    # Range checks refuse nan but not every inf: an infinite latency would
    # bill inf * 0 = nan seconds to a round that sends no message.
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be a finite number, got {raw!r}")
    return value


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    def require(cond: bool, msg: str):
        if not cond:
            raise ConfigError(msg)

    d, c, s, r = cfg.data, cfg.client, cfg.server, cfg.run
    require(d.source in ("synth", "tu"), f"data.source: unknown source {d.source!r}")
    require(
        d.partition in (graphdata.MODE_IID, graphdata.MODE_LABEL_SKEW, graphdata.MODE_CROSS_DATASET),
        f"data.partition: unknown mode {d.partition!r}",
    )
    require(d.skew > 0, "data.skew: must be > 0")
    require(d.n_graphs >= 1, "data.n_graphs: must be >= 1")
    require(3 <= d.nodes_lo <= d.nodes_hi, "data.nodes_lo/nodes_hi: need 3 <= lo <= hi")
    require(d.feature_dim >= 1, "data.feature_dim: must be >= 1")
    require(d.noise >= 0, "data.noise: must be >= 0")
    fracs = (d.train_frac, d.val_frac, d.test_frac)
    require(all(f >= 0 for f in fracs), "data split fractions must be >= 0")
    require(abs(sum(fracs) - 1.0) <= 1e-9, "data split fractions must sum to 1")
    if d.source == "tu":
        require(bool(d.tu_path), "data.tu_path: required when data.source = tu")
        require(Path(d.tu_path).exists(), f"data.tu_path: {d.tu_path} does not exist")
    require(c.eta > 0, "client.eta: must be > 0")
    require(c.alpha >= 0, "client.alpha: must be >= 0")
    require(c.nu >= 0, "client.nu: must be >= 0")
    require(c.mu_prox >= 0, "client.mu_prox: must be >= 0")
    require(c.sparsifier in ("threshold", "topk"), f"client.sparsifier: {c.sparsifier!r}")
    require(c.cut_sparse >= 0, "client.cut_sparse: must be >= 0")
    require(0.0 <= c.beta <= 1.0, "client.beta: must be within [0, 1]")
    require(c.local_epochs >= 0, "client.local_epochs: must be >= 0")
    require(c.finetune_epochs >= 0, "client.finetune_epochs: must be >= 0")
    require(c.batch_size >= 0, "client.batch_size: must be >= 0")
    require(0.0 <= s.p <= 1.0, "server.p: must be within [0, 1]")
    require(0.0 < s.rho <= 1.0, "server.rho: must be within (0, 1]")
    require(s.tau_lowrank >= 0, "server.tau_lowrank: must be >= 0")
    require(1 <= s.r_bits <= 32, "server.r_bits: must be within [1, 32]")
    require(s.dropout_a >= 0 and s.dropout_b >= 0, "server.dropout_a/b: must be >= 0")
    require(
        (s.dropout_a > 0) == (s.dropout_b > 0),
        "server.dropout_a/b: set both to enable dropout, both zero to disable",
    )
    require(s.bandwidth_mbps > 0, "server.bandwidth_mbps: must be > 0")
    require(s.latency_ms >= 0, "server.latency_ms: must be >= 0")
    require(r.algorithm in ALGORITHMS, f"run.algorithm: unknown algorithm {r.algorithm!r}")
    require(r.ablation in ABLATIONS, f"run.ablation: unknown ablation {r.ablation!r}")
    require(
        r.algorithm == "cefgl" or r.ablation == "full",
        f"run.ablation: {r.ablation} applies to cefgl only; {r.algorithm} runs full",
    )
    require(r.rounds >= 1, "run.rounds: must be >= 1")
    require(r.clients >= 1, "run.clients: must be >= 1")
    require(r.hidden >= 1, "run.hidden: must be >= 1")
    motifs = _motif_tuple(cfg)
    for motif in motifs:
        require(motif in graphdata.MOTIFS, f"data.motifs: unknown motif {motif!r}")
    require(len(set(motifs)) == len(motifs), "data.motifs: each motif may appear once")
    require(d.n_graphs >= len(motifs), f"data.n_graphs: must be >= the {len(motifs)} motifs")
    for name, seed in dataclasses.asdict(cfg.seeds).items():
        require(seed >= 0, f"seeds.{name}: must be >= 0")
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Parse a flat dotted-key config file; unknown keys are rejected.

    ``CEFGL_SEED`` in the environment overrides the whole seed block.
    """
    cfg = ExperimentConfig()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} does not exist")
    for lineno, raw_line in enumerate(_read_utf8(p, ConfigError).splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p.name}:{lineno}: expected 'section.key = value'")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key.count(".") != 1:
            raise ConfigError(f"{p.name}:{lineno}: key {key!r} must be section.key")
        section_name, field_name = key.split(".")
        section = getattr(cfg, section_name, None)
        if section is None or not dataclasses.is_dataclass(section):
            raise ConfigError(f"{p.name}:{lineno}: unknown section {section_name!r}")
        if field_name not in {f.name for f in dataclasses.fields(section)}:
            raise ConfigError(f"{p.name}:{lineno}: unknown key {key!r}")
        setattr(section, field_name, _coerce(raw_value, getattr(section, field_name), key))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            base = int(env_seed)
        except ValueError:
            base = -1
        if base < 0:
            raise ConfigError(f"{SEED_ENV_VAR} must be a non-negative integer, got {env_seed!r}")
        cfg = with_base_seed(cfg, base)
    return _validate(cfg)


# ---------------------------------------------------------------------------
# Simulation assembly


def _motif_tuple(cfg: ExperimentConfig) -> Tuple[str, ...]:
    return tuple(m.strip() for m in cfg.data.motifs.split(","))


def _load_pool(cfg: ExperimentConfig) -> List[graphdata.GraphDataset]:
    d = cfg.data
    if d.partition == graphdata.MODE_CROSS_DATASET:
        if d.source == "tu":
            subdirs = sorted(p for p in Path(d.tu_path).iterdir() if p.is_dir())
            if len(subdirs) != cfg.run.clients:
                raise ConfigError(
                    f"cross_dataset: {len(subdirs)} dataset dirs for {cfg.run.clients} clients"
                )
            pool = [graphdata.load_tu_dataset(sub) for sub in subdirs]
        else:
            pool = _synth_pool(cfg, [cfg.seeds.data + i for i in range(cfg.run.clients)])
        return graphdata.pad_to_common(pool)
    if d.source == "tu":
        return [graphdata.load_tu_dataset(d.tu_path)]
    return _synth_pool(cfg, [cfg.seeds.data])


def _synth_pool(cfg: ExperimentConfig, seeds: Sequence[int]) -> List[graphdata.GraphDataset]:
    spec = _synth_spec(cfg)
    try:
        return [graphdata.synth_generate(spec, seed) for seed in seeds]
    except NonFiniteInput as exc:  # the noise is the one input that can overflow
        raise ConfigError(f"data.noise: {exc}") from exc


def _synth_spec(cfg: ExperimentConfig) -> graphdata.SynthSpec:
    d = cfg.data
    return graphdata.SynthSpec(
        n_graphs=d.n_graphs,
        motifs=_motif_tuple(cfg),
        nodes=(d.nodes_lo, d.nodes_hi),
        feature_dim=d.feature_dim,
        noise=d.noise,
    )


def partition_fingerprint(partition: graphdata.ClientPartition) -> str:
    """Stable hash over the client index assignments."""
    digest = hashlib.sha256()
    for cid in sorted(partition.assignments):
        digest.update(str(cid).encode())
        digest.update(np.asarray(partition.assignments[cid], dtype=np.int64).tobytes())
    return digest.hexdigest()


def build_simulation(
    cfg: ExperimentConfig,
) -> Tuple[ServerState, List[ClientState], str]:
    """Materialize datasets, partition, and initial states for a config.

    Returns (server, clients, partition fingerprint).
    """
    pool = _load_pool(cfg)
    partition = graphdata.partition_clients(
        pool,
        cfg.run.clients,
        cfg.data.partition,
        skew=cfg.data.skew,
        seed=cfg.seeds.data,
    )
    arch = gnn.ArchConfig(
        feature_dim=pool[0].feature_dim,
        hidden=cfg.run.hidden,
        classes=pool[0].num_classes,
    )
    theta0 = gnn.init_params(arch, cfg.seeds.init)
    zeros = gnn.zeros_like_params(theta0)
    # The private channel starts empty.
    shared, private = theta0, gnn.SparseParams(np.empty(0, dtype=np.int64), np.empty(0))
    client_cfg, server_cfg, up, down = fedcore.preset(cfg.run.algorithm, cfg.client, cfg.server)
    # An ablation switches off one channel of cefgl; under s_only the private
    # one starts from the initial model's nonzero entries.  _validate refuses
    # ablations for the baselines, where w_only is full and s_only trains
    # nothing.
    if cfg.run.ablation == "s_only":
        shared, private = zeros, gnn.nonzero_entries(theta0)
        client_cfg.local_epochs = 0
        server_cfg.p = 0.0
    elif cfg.run.ablation == "w_only":
        client_cfg.finetune_epochs = 0
    # The server and every client start from the same arrays, read-only:
    # each step and each downlink rebinds a party's channels to new arrays.
    for v in (*theta0.values(), *zeros.values(), private.positions, private.values):
        v.setflags(write=False)
    ratios = (cfg.data.train_frac, cfg.data.val_frac, cfg.data.test_frac)
    clients = []
    for cid in range(cfg.run.clients):
        source = pool[cid] if cfg.data.partition == graphdata.MODE_CROSS_DATASET else pool[0]
        # The val split is held out but nothing scores it.
        seed = cfg.seeds.data + 1000 + cid
        assigned = partition.assignments[cid]
        train, _, test = graphdata.split_dataset(source, ratios, seed, assigned, f"client{cid}")
        clients.append(
            ClientState(
                id=cid,
                w=dict(shared),
                s=private,
                h=dict(zeros),
                train=train,
                test=test,
                cfg=client_cfg,
                rng=np.random.default_rng([cfg.seeds.data, 2000 + cid]),
            )
        )
    server = ServerState(
        theta=dict(shared),
        cfg=server_cfg,
        uplink_scheme=up,
        downlink_scheme=down,
        coin_rng=np.random.default_rng(cfg.seeds.coin),
        sampling_rng=np.random.default_rng(cfg.seeds.sampling),
        dropout_rng=np.random.default_rng(cfg.seeds.dropout),
    )
    return server, clients, partition_fingerprint(partition)


# ---------------------------------------------------------------------------
# Running


@dataclass
class RunSummary:
    """Everything a finished run reports; aggregates derive from the rounds."""

    records: List[RoundRecord]
    partition_hash: str
    final_acc_mean: float = field(init=False)
    final_acc_std: float = field(init=False)
    total_uplink_bits: int = field(init=False)
    total_downlink_bits: int = field(init=False)

    def __post_init__(self):
        last = self.records[-1]
        self.final_acc_mean = float(np.mean(last.test_accuracy))
        self.final_acc_std = float(np.std(last.test_accuracy))
        self.total_uplink_bits = sum(r.uplink_bits for r in self.records)
        self.total_downlink_bits = sum(r.downlink_bits for r in self.records)


def _execute(cfg: ExperimentConfig):
    started = time.perf_counter()
    server, clients, fingerprint = build_simulation(cfg)
    rounds: List[RoundRecord] = []
    for t in range(cfg.run.rounds):
        try:
            rounds.append(fedcore.run_round(server, clients))
        except Exception as exc:
            exc.args = (f"round {t}: {exc}",) + exc.args[1:]
            raise
    summary = RunSummary(records=rounds, partition_hash=fingerprint)
    log.info(
        "run finished: %d rounds, final acc %.4f, elapsed %.2fs",
        cfg.run.rounds,
        summary.final_acc_mean,
        time.perf_counter() - started,
    )
    return summary, server, clients


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Execute the configured number of rounds and summarize.

    Deterministic for fixed seeds; failures are re-raised with the round
    index prepended.  Output files are written by emit_metrics, not here.
    """
    summary, _, _ = _execute(cfg)
    return summary


def run_sweep(cfg: ExperimentConfig, axis: str, values: Sequence) -> List[RunSummary]:
    """One run per axis value with shared seeds; partitions must pair up."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r} (choose from {sorted(SWEEP_AXES)})")
    section_name, field_name = SWEEP_AXES[axis]
    summaries = []
    for value in values:
        point = copy.deepcopy(cfg)
        section = getattr(point, section_name)
        coerced = _coerce(str(value), getattr(section, field_name), axis)
        setattr(section, field_name, coerced)
        _validate(point)
        summaries.append(run_experiment(point))
    hashes = {s.partition_hash for s in summaries}
    if len(hashes) > 1:
        raise IoError("sweep points diverged: dataset partitions differ across values")
    return summaries


# ---------------------------------------------------------------------------
# Persistence


def _record_from_dict(d) -> RoundRecord:
    """The record one rounds.jsonl line holds; TypeError if it is not an
    object with RoundRecord's keys and values of the types they are written
    with (the per-client lists non-empty, and only ``train_loss`` holding
    nulls)."""
    if not isinstance(d, dict):
        raise TypeError(f"expected a JSON object, got {type(d).__name__}")
    rec = RoundRecord(**d)

    def num(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def ints(vs):
        return isinstance(vs, list) and all(num(v) and isinstance(v, int) for v in vs)

    def nums(vs, allow_null=False):
        return (
            isinstance(vs, list)
            and len(vs) > 0
            and all(num(v) or (allow_null and v is None) for v in vs)
        )

    fits = (
        ints([rec.t, rec.uplink_bits, rec.downlink_bits])
        and isinstance(rec.communicated, bool)
        and ints(rec.participants)
        and ints(rec.dropped)
        and nums(rec.train_loss, allow_null=True)
        and nums(rec.test_accuracy)
        and num(rec.wall_time)
        and num(rec.sparsity_ratio)
        and all(v is None or num(v) for v in (rec.lowrank_rank_ratio, rec.lowrank_param_ratio))
    )
    if not fits:
        raise TypeError("a field holds a value of the wrong type")
    return rec


CSV_COLUMNS = [
    "round",
    "communicated",
    "uplink_bits",
    "downlink_bits",
    "mean_acc",
    "mean_train_loss",
    "wall_time",
    "sparsity_ratio",
    "lowrank_rank_ratio",
    "lowrank_param_ratio",
]


def _optional(value) -> str:
    return "" if value is None else repr(value)


def _csv_row(rec: RoundRecord) -> dict:
    losses = [v for v in rec.train_loss if v is not None]
    return {
        "round": rec.t,
        "communicated": int(rec.communicated),
        "uplink_bits": rec.uplink_bits,
        "downlink_bits": rec.downlink_bits,
        "mean_acc": repr(float(np.mean(rec.test_accuracy))),
        "mean_train_loss": _optional(float(np.mean(losses)) if losses else None),
        "wall_time": repr(rec.wall_time),
        "sparsity_ratio": repr(rec.sparsity_ratio),
        "lowrank_rank_ratio": _optional(rec.lowrank_rank_ratio),
        "lowrank_param_ratio": _optional(rec.lowrank_param_ratio),
    }


def emit_metrics(summary: RunSummary, sink) -> Path:
    """Write rounds.jsonl and summary.csv into the sink directory, each
    through a temporary file renamed into place."""
    out = Path(sink)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(dataclasses.asdict(rec), sort_keys=True, separators=(",", ":"))
        for rec in summary.records
    ]
    text = "\n".join(lines) + "\n"
    graphdata._write_atomic(out / "rounds.jsonl", lambda fh: fh.write(text.encode()))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rec in summary.records:
        writer.writerow(_csv_row(rec))
    graphdata._write_atomic(out / "summary.csv", lambda fh: fh.write(buf.getvalue().encode()))
    return out


def _read_utf8(path: Path, kind=IoError) -> str:
    """The file's text; bytes that are not UTF-8 raise ``kind`` naming the line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise kind(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc


_CHECKED_COLUMNS = ("round", "communicated", "uplink_bits", "downlink_bits", "mean_acc")


def load_summary(directory) -> RunSummary:
    """Rebuild a RunSummary from rounds.jsonl, cross-checking summary.csv.

    A missing file, a file that is not UTF-8, a rounds.jsonl line that is
    not a round record, a summary.csv without a checked column, or a
    disagreement between the two raises IoError naming the file and, where
    one line is at fault, its physical line number.
    """
    root = Path(directory)
    jsonl = root / "rounds.jsonl"
    if not jsonl.is_file():
        raise IoError(f"{jsonl} does not exist")
    records = []
    for lineno, line in enumerate(_read_utf8(jsonl).split("\n"), start=1):
        if line.strip():
            try:
                records.append(_record_from_dict(json.loads(line)))
            except (ValueError, TypeError) as exc:  # JSONDecodeError is a ValueError
                raise IoError(f"{jsonl}:{lineno}: not a round record ({exc})") from exc
    if not records:
        raise IoError(f"{jsonl} holds no round records")
    summary = RunSummary(records=records, partition_hash="")
    csv_path = root / "summary.csv"
    if not csv_path.is_file():
        raise IoError(f"{csv_path} does not exist")
    reader = csv.DictReader(io.StringIO(_read_utf8(csv_path), newline=""))
    try:
        header = reader.fieldnames or []
        rows = list(reader)
    except csv.Error as exc:
        raise IoError(f"{csv_path}:{reader.line_num}: {exc}") from exc
    missing = [col for col in _CHECKED_COLUMNS if col not in header]
    if missing:
        raise IoError(f"{csv_path}:1: no {missing[0]!r} column")
    if len(rows) != len(records):
        raise IoError(f"{csv_path} has {len(rows)} rows but {jsonl} has {len(records)}")
    for lineno, (row, rec) in enumerate(zip(rows, records), start=2):
        expect = _csv_row(rec)
        for col in _CHECKED_COLUMNS:
            if str(expect[col]) != row[col]:
                raise IoError(
                    f"{csv_path}:{lineno}: disagrees with rounds.jsonl at round "
                    f"{rec.t} ({col})"
                )
    return summary


def save_checkpoint(states, path) -> None:
    """Stream any picklable training state to disk after a version header,
    through a temporary file renamed into place."""

    def write(fh):
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        pickle.dump(states, fh, protocol=pickle.HIGHEST_PROTOCOL)

    graphdata._write_atomic(path, write)


def load_checkpoint(path):
    p = Path(path)
    if not p.is_file():
        raise IoError(f"checkpoint {p} does not exist")
    with open(p, "rb") as fh:
        header = fh.read(6)
        if len(header) < 6 or header[:4] != CHECKPOINT_MAGIC:
            raise VersionMismatch(f"{p} is not a checkpoint file")
        (version,) = struct.unpack("<H", header[4:])
        if version != CHECKPOINT_VERSION:
            raise VersionMismatch(f"checkpoint version {version} != {CHECKPOINT_VERSION}")
        return pickle.load(fh)


def run_and_persist(cfg: ExperimentConfig, out_dir=None) -> RunSummary:
    """run_experiment plus the standard output files and final checkpoint.

    The checkpoint is written first: it is the largest file, and the one
    whose write can fail on the state itself.  If it fails, an earlier run's
    files in ``out_dir`` stay as they were.
    """
    out = Path(out_dir if out_dir is not None else cfg.run.out_dir)
    summary, server, clients = _execute(cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint((server, clients, cfg.run.rounds), out / "checkpoint.bin")
    emit_metrics(summary, out)
    return summary
