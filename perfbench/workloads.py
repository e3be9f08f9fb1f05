"""Benchmark workloads: the config file (and, for ``fleet``, the TU dataset)
that each workload hands to ``cefgl run``, generated from the workload seed.

The program only ever sees the files written here.  Every workload derives
the data, init, sampling and dropout seeds from the workload seed and keeps
the communication coin at the shipped seed, so all seeds communicate on the
same rounds: the seed varies the data and the model, not the amount of
traffic.  At seed 7 the seed block equals the shipped defaults (7..11) and
no seed key is written, so ``defaults`` is then the empty config.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

DEFAULT_SEED = 7
# The shipped seed block of an empty config; keys equal to these are omitted.
SHIPPED_SEEDS = {"data": 7, "init": 8, "coin": 9, "sampling": 10, "dropout": 11}
FIXED_COIN = SHIPPED_SEEDS["coin"]

FLEET_PREFIX = "FLEET"
FLEET_GRAPHS = 5000
FLEET_NODES = (6, 20)
FLEET_FEATURES = 4
FLEET_MOTIFS = ("triangles", "star", "ring")
FLEET_NOISE = 0.8


def seed_block(seed: int) -> Dict[str, int]:
    return {
        "data": seed,
        "init": seed + 1,
        "coin": FIXED_COIN,
        "sampling": seed + 3,
        "dropout": seed + 4,
    }


def config_text(keys: Sequence[Tuple[str, object]], seed: int) -> str:
    """Flat ``section.key = value`` lines; seed keys only where they differ
    from the shipped seed block."""
    lines = [f"{key} = {value}" for key, value in keys]
    for name, value in seed_block(seed).items():
        if value != SHIPPED_SEEDS[name]:
            lines.append(f"seeds.{name} = {value}")
    return "".join(line + "\n" for line in lines)


# Workload settings.  Round counts are cut from the shipped 200 so that one
# benchmark run holds several operations, whose median is steadier than one
# long operation on a shared machine; the per-round mix of work is unchanged.
# With the fixed coin, rounds 1, 8, 9, 10, 11, ... communicate.
SKEW_KEYS = [
    ("run.clients", 4),
    ("run.rounds", 50),
    ("run.hidden", 8),
    ("data.n_graphs", 400),
    ("data.nodes_lo", 4),
    ("data.nodes_hi", 7),
    ("data.feature_dim", 3),
    ("data.noise", 1.0),
    ("data.partition", "label_skew"),
    ("data.skew", 0.3),
    ("client.eta", 0.02),
    ("client.nu", 0.05),
    ("client.sparsifier", "topk"),
    ("client.beta", 0.1),
    ("server.r_bits", 16),
]
WIDE_KEYS = [
    ("run.clients", 20),
    ("run.rounds", 20),
    ("run.hidden", 128),
    ("data.n_graphs", 200),
    ("data.motifs", "triangles,star,ring"),
    ("data.nodes_lo", 4),
    ("data.nodes_hi", 8),
    ("data.feature_dim", 8),
    ("server.r_bits", 16),
]
FLEET_ROUNDS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, work dir) -> config text; may write further input files.
    make: Callable[[int, Path], str]
    # Public functions a traced run must see called at least once.
    expect_calls: Tuple[str, ...]


def _fleet_make(seed: int, work: Path) -> str:
    tu_dir = work / "fleet_tu"
    graphs = fleet_graphs(seed)
    write_tu(tu_dir, graphs)
    verify_tu(tu_dir, graphs)
    keys = [
        ("data.source", "tu"),
        ("data.tu_path", tu_dir.resolve()),
        ("run.clients", 100),
        ("run.rounds", FLEET_ROUNDS),
        ("server.r_bits", 16),
    ]
    return config_text(keys, seed)


_ROUND_CALLS = (
    "cli.main",
    "harness.parse_config",
    "harness.run_and_persist",
    "harness.build_simulation",
    "graphdata.partition_clients",
    "graphdata.split_dataset",
    "gnn.loss_and_grad",
    "gnn.evaluate",
    "gnn.combine",
    "fedcore.local_train_round",
    "fedcore.finetune_sparse",
    "fedcore.update_correction",
    "fedcore.client_uplink",
    "fedcore.apply_sparsifier",
    "compress.encode_payload",
    "compress.decode_payload",
    "linalg.svd",
    "linalg.lowrank_truncate",
    "linalg.weighted_sum",
)
_PERSIST_CALLS = ("harness.emit_metrics", "harness.save_checkpoint")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "skew",
            "acceptance label-skew task (4 clients x ~67 train graphs), 50 rounds: gnn-bound",
            lambda seed, work: config_text(SKEW_KEYS, seed),
            _ROUND_CALLS + _PERSIST_CALLS + ("graphdata.synth_generate",),
        ),
        Workload(
            "wide",
            "hidden 128 with 8 train graphs per client: ~70k values per uplink make it codec-bound",
            lambda seed, work: config_text(WIDE_KEYS, seed),
            _ROUND_CALLS + _PERSIST_CALLS + ("graphdata.synth_generate",),
        ),
        Workload(
            "fleet",
            "100 clients, 5000 TU-format graphs of 6-20 nodes: setup is TU loading, largest states",
            _fleet_make,
            _ROUND_CALLS + _PERSIST_CALLS + ("graphdata.load_tu_dataset",),
        ),
        Workload(
            "defaults",
            "empty config (4-bit uplinks, threshold sparsifier); diverges at round 117 at seed 7",
            lambda seed, work: config_text([], seed),
            _ROUND_CALLS + ("graphdata.synth_generate",),
        ),
    )
}


# ---------------------------------------------------------------------------
# The fleet dataset, written in TU text format


@dataclass
class GenGraph:
    edges: List[Tuple[int, int]]  # canonical (i < j), 0-based, sorted
    features: np.ndarray  # n x FLEET_FEATURES
    label: int

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _motif_edges(motif: str, n: int) -> List[Tuple[int, int]]:
    if motif == "triangles":  # a path with every block of three closed
        closures = [(a, a + 2) for a in range(0, n - 2, 3)]
        return sorted([(i, i + 1) for i in range(n - 1)] + closures)
    if motif == "star":
        return [(0, i) for i in range(1, n)]
    if motif == "ring":
        return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))
    raise ValueError(f"unknown motif {motif!r}")


def fleet_graphs(seed: int, count: int = FLEET_GRAPHS) -> List[GenGraph]:
    """``count`` graphs, one motif per class, class-dependent feature means."""
    rng = np.random.default_rng([seed, 0xF1EE7])
    means = rng.normal(0.0, 1.0, size=(len(FLEET_MOTIFS), FLEET_FEATURES))
    graphs = []
    for i in range(count):
        label = i % len(FLEET_MOTIFS)
        n = int(rng.integers(FLEET_NODES[0], FLEET_NODES[1] + 1))
        feats = means[label] + FLEET_NOISE * rng.normal(size=(n, FLEET_FEATURES))
        graphs.append(GenGraph(_motif_edges(FLEET_MOTIFS[label], n), feats, label))
    order = rng.permutation(count)
    return [graphs[i] for i in order]


def write_tu(root: Path, graphs: Sequence[GenGraph]) -> None:
    """TU text files: edges in both directions, 1-based node and graph ids;
    features as ``repr`` floats so they read back bit-exactly."""
    root.mkdir(parents=True, exist_ok=True)
    edges, indicator, attrs = [], [], []
    offset = 0
    for gid, g in enumerate(graphs, start=1):
        for i, j in g.edges:
            edges.append(f"{offset + i + 1}, {offset + j + 1}")
            edges.append(f"{offset + j + 1}, {offset + i + 1}")
        indicator += [str(gid)] * g.n
        attrs += [",".join(repr(float(v)) for v in row) for row in g.features]
        offset += g.n
    files = {
        "A": edges,
        "graph_indicator": indicator,
        "graph_labels": [str(g.label) for g in graphs],
        "node_attributes": attrs,
    }
    for suffix, lines in files.items():
        (root / f"{FLEET_PREFIX}_{suffix}.txt").write_text("\n".join(lines) + "\n")


def verify_tu(root: Path, graphs: Sequence[GenGraph]) -> None:
    """Read the directory back through the program's loader and require that
    it holds exactly the generated graphs."""
    from cefgl import graphdata

    ds = graphdata.load_tu_dataset(root)
    if len(ds) != len(graphs):
        raise AssertionError(f"fleet: loader saw {len(ds)} graphs, wrote {len(graphs)}")
    if ds.num_classes != len(FLEET_MOTIFS) or ds.feature_dim != FLEET_FEATURES:
        raise AssertionError("fleet: loader saw the wrong class count or feature width")
    for k, (got, want) in enumerate(zip(ds.graphs, graphs)):
        if (
            got.n != want.n
            or got.label != want.label
            or sorted(got.edges) != want.edges
            or not np.array_equal(got.features, want.features)
        ):
            raise AssertionError(f"fleet: graph {k} differs after the TU round trip")
