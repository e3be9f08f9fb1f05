"""Graph classification datasets: TU-format ingestion, synthetic generation,
train/val/test splitting, client partitioning and size-grouped batches.

Everything here is a pure function of its inputs and an explicit seed, so
datasets and partitions are reproducible and safely shareable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, islice
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadMode,
    BadRatios,
    BadSpec,
    IndexOutOfRange,
    IoError,
    MissingFile,
    NonFiniteInput,
    ParseError,
)

MODE_IID = "iid"
MODE_LABEL_SKEW = "label_skew"
MODE_CROSS_DATASET = "cross_dataset"

MOTIFS = ("triangles", "star", "ring", "path", "clique")


@dataclass
class Graph:
    """One undirected graph with node features and a class label."""

    n: int
    edges: Tuple[Tuple[int, int], ...]
    features: np.ndarray
    label: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graphs must have at least one node")
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.shape[0] != self.n:
            raise ValueError(f"feature rows {feats.shape[0]} != node count {self.n}")
        if not np.isfinite(feats).all():
            raise ValueError("node features must be finite")
        self.features = feats
        canonical = [(i, j) if i <= j else (j, i) for i, j in self.edges]
        if len(set(canonical)) != len(canonical):
            raise ValueError("duplicate undirected edge")
        for i, j in canonical:
            if not (0 <= i and j < self.n):  # i <= j
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
        self.edges = tuple(canonical)


def _checked_graph(n: int, edges, features: np.ndarray, label: int) -> Graph:
    """A ``Graph`` from fields its caller has already checked, without
    ``__post_init__``: ``edges`` canonical, ``features`` float64 rows."""
    g = object.__new__(Graph)
    g.n, g.edges, g.features, g.label = n, edges, features, label
    return g


@dataclass
class SizeGroup:
    """The graphs of one node count inside a batch.

    They are consecutive in batch order, so their nodes occupy ``rows`` of
    the batch's feature matrix, graph after graph; ``adj`` holds one
    symmetric n x n adjacency matrix per graph.
    """

    n: int
    rows: slice
    adj: np.ndarray


class GraphBatch:
    """Graphs as one disjoint union, sorted stably by node count.

    Batch order is the input order sorted by node count, equal counts kept
    in input order, so each node count's graphs form one ``SizeGroup`` run
    and one stacked matmul per group does every neighbour sum, while
    adjacency storage stays the sum of n_i^2 over the graphs: nothing is
    padded to the largest graph.  ``len`` is the number of graphs;
    ``labels`` and ``sizes`` follow batch order, and each graph's nodes are
    the ``sizes[i]`` consecutive feature rows from ``starts[i]``, so one
    ``np.add.reduceat`` over the rows sums every graph's nodes.
    """

    def __init__(self, graphs: Sequence[Graph]):
        if not graphs:
            raise ValueError("a batch needs at least one graph")
        graphs = sorted(graphs, key=lambda g: g.n)  # stable
        self.sizes = np.array([g.n for g in graphs])
        self.labels = np.array([g.label for g in graphs], dtype=np.int64)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.features = np.concatenate([g.features for g in graphs])
        self.groups: List[SizeGroup] = []
        start = 0
        for n, run in groupby(graphs, key=lambda g: g.n):
            members = list(run)
            k = len(members)
            adj = np.zeros((k, n, n))
            counts = [len(g.edges) for g in members]
            slot = np.repeat(np.arange(k), counts)
            ends = _edge_ends(members, sum(counts), np.intp)
            adj[slot, ends[:, 0], ends[:, 1]] = 1.0
            adj[slot, ends[:, 1], ends[:, 0]] = 1.0
            self.groups.append(SizeGroup(n, slice(start, start + k * n), adj))
            start += k * n

    def __len__(self) -> int:
        return len(self.labels)


def _edge_ends(graphs: Sequence[Graph], count: int, dtype) -> np.ndarray:
    """The graphs' ``count`` edges, graph after graph, as a (count, 2) array
    of local node ids."""
    flat = chain.from_iterable(chain.from_iterable(g.edges for g in graphs))
    return np.fromiter(flat, dtype=dtype, count=2 * count).reshape(-1, 2)


def _narrow(values: Sequence[int]) -> np.ndarray:
    """Non-negative ints in the narrowest unsigned dtype that holds them."""
    return np.array(values, dtype=np.min_scalar_type(max(values, default=0)))


@dataclass
class GraphDataset:
    """An ordered collection of graphs sharing a feature and label space."""

    graphs: List[Graph]
    num_classes: int
    feature_dim: int
    name: str = ""

    def __post_init__(self):
        for g in self.graphs:
            if not 0 <= g.label < self.num_classes:
                raise ValueError(f"label {g.label} outside [0, {self.num_classes})")
            if g.features.shape[1] != self.feature_dim:
                raise ValueError("inconsistent feature dimension")

    def __len__(self) -> int:
        return len(self.graphs)

    @cached_property
    def batch(self) -> GraphBatch:
        """All graphs as one batch, built on first use; ``graphs`` must not
        change after that."""
        return GraphBatch(self.graphs)

    def __getstate__(self):
        """Pickles (checkpoints) carry the graphs as flat arrays, not as
        ``Graph`` objects, and leave out the batch, which is rebuilt on
        first use: node counts, labels, edge counts, every graph's local
        edge ends in turn, and its feature rows stacked."""
        graphs = self.graphs
        sizes = [g.n for g in graphs]
        edge_counts = [len(g.edges) for g in graphs]
        state = {k: v for k, v in vars(self).items() if k not in ("graphs", "batch")}
        state["graphs"] = {
            "sizes": _narrow(sizes),
            "labels": _narrow([g.label for g in graphs]),
            "edge_counts": _narrow(edge_counts),
            "ends": _edge_ends(
                graphs, sum(edge_counts), np.min_scalar_type(max(sizes, default=1) - 1)
            ),
            "features": np.concatenate(
                [g.features for g in graphs] or [np.empty((0, self.feature_dim))]
            ),
        }
        return state

    def __setstate__(self, state):
        flat = state.pop("graphs")
        edges = list(zip(*flat["ends"].T.tolist()))
        features = flat["features"]
        graphs, row, cut = [], 0, 0
        for n, e, label in zip(
            flat["sizes"].tolist(), flat["edge_counts"].tolist(), flat["labels"].tolist()
        ):
            # Each graph passed Graph's checks before it was pickled.
            graphs.append(
                _checked_graph(n, tuple(edges[cut : cut + e]), features[row : row + n], label)
            )
            row, cut = row + n, cut + e
        state["graphs"] = graphs
        vars(self).update(state)

    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)

    def subset(self, indices: Sequence[int], name: str = "") -> "GraphDataset":
        return GraphDataset(
            graphs=[self.graphs[i] for i in indices],
            num_classes=self.num_classes,
            feature_dim=self.feature_dim,
            name=name or self.name,
        )


@dataclass
class ClientPartition:
    """Disjoint index assignments of a dataset pool to clients."""

    assignments: Dict[int, Tuple[int, ...]]


# ---------------------------------------------------------------------------
# TU-format loading


def _loadtxt(source, dtype) -> np.ndarray:
    """Comma-separated rows from a path or a list of lines; no comment syntax."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows: an empty table
        return np.loadtxt(
            source, dtype=dtype, delimiter=",", comments=None, ndmin=2, encoding="utf-8"
        )


class _TuTable:
    """One TU text file parsed as a table, one row per non-blank line.

    On valid input the file goes straight into one ``np.loadtxt`` call,
    which reads it in universal-newline mode and skips empty lines; no list
    of its lines is built.  Only when that call fails (a whitespace-only
    line, a bad token, a ragged row or bytes that are not UTF-8) is the file
    read again line by line: whitespace-only lines are dropped there, and
    an error names the physical line it points at.
    """

    def __init__(self, path: Path, dtype, width: Optional[int], expected: str):
        self.path = path
        try:
            self.rows = _loadtxt(path, dtype)
        except ValueError:  # UnicodeDecodeError included
            try:
                self.rows = _loadtxt([line for _, line in self._lines()], dtype)
            except ValueError:
                raise self._locate(dtype, width, expected)
        if not self.rows.size:
            self.rows = np.empty((0, width or 0), dtype=dtype)
        elif width is not None and self.rows.shape[1] != width:
            raise self._locate(dtype, width, expected)

    def _lines(self):
        """(physical line number, line) for each non-blank line."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{self.path.name}: not UTF-8 text ({exc.reason})") from exc
        return (
            (lineno, line)
            for lineno, line in enumerate(text.split("\n"), start=1)
            if line.strip()
        )

    def _locate(self, dtype, width: Optional[int], expected: str) -> ParseError:
        """The error for the first line that does not parse on its own or
        whose field count differs from ``width`` (else from the first line's)."""
        for lineno, line in self._lines():
            where = f"{self.path.name}:{lineno}"
            try:
                fields = _loadtxt([line], dtype)
            except ValueError:
                return ParseError(f"{where}: expected {expected}, got {line.strip()!r}")
            if width is not None and fields.shape[1] != width:
                return ParseError(f"{where}: expected {width} fields, got {line.strip()!r}")
            width = fields.shape[1]
        return ParseError(f"{self.path.name}: unreadable table")

    def error(self, row: int, message: str, kind=ParseError) -> IoError:
        """``kind`` naming the physical line of table row ``row``."""
        lineno = next(islice(self._lines(), int(row), None))[0]
        return kind(f"{self.path.name}:{lineno}: {message}")


def load_tu_dataset(dir_path) -> GraphDataset:
    """Load a TU-style text dataset from a directory.

    The directory must contain ``<DS>_A.txt``, ``<DS>_graph_indicator.txt``
    and ``<DS>_graph_labels.txt``; node features come from
    ``<DS>_node_attributes.txt`` when present, else from
    ``<DS>_node_labels.txt`` one-hot over its distinct labels, else a
    constant scalar feature.

    Every file is UTF-8 text with one record per line; lines end in
    ``\n``, ``\r\n`` or ``\r``.  Blank and whitespace-only lines are
    skipped; there is no comment syntax, so a ``#`` line is a bad token.
    Fields are separated by commas: ``i, j`` (1-based node ids) in ``A``,
    one integer per line in the indicator and label files, and a fixed
    number of floats per line in the attributes.  Integers are plain
    decimal and must fit int64.  Errors name the file and the physical line
    number, blank lines counted.

    Each table is parsed in one pass and every check runs once, vectorized
    over the whole table: ids in range and 1-based, no edge across graphs,
    no graph without nodes, one finite feature row per node.  Edges become
    canonical (lo, hi) pairs, sorted, with repeats and self-loops dropped.
    The graphs are built without running ``Graph``'s own checks again.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise MissingFile(f"dataset directory {root} does not exist")
    candidates = sorted(root.glob("*_A.txt"))
    if not candidates:
        raise MissingFile(f"no *_A.txt edge file under {root}")
    prefix = candidates[0].name[: -len("_A.txt")]

    def required(suffix: str) -> Path:
        p = root / f"{prefix}_{suffix}.txt"
        if not p.is_file():
            raise MissingFile(f"missing {p.name} in {root}")
        return p

    indicator = _TuTable(required("graph_indicator"), np.int64, 1, "a graph id")
    graph_id = indicator.rows[:, 0]
    n_nodes = len(graph_id)
    if not n_nodes:
        raise ParseError(f"{indicator.path.name}:1: no nodes declared")
    below = np.flatnonzero(graph_id < 1)
    if below.size:
        raise indicator.error(below[0], "graph ids are 1-based")

    labels_path = required("graph_labels")
    raw_labels = _TuTable(labels_path, np.int64, 1, "an integer label").rows[:, 0]
    n_graphs = len(raw_labels)
    if graph_id.max() > n_graphs:
        raise ParseError(
            f"{indicator.path.name}: node assigned to graph {graph_id.max()} "
            f"but only {n_graphs} labels present"
        )
    sizes = np.bincount(graph_id - 1, minlength=n_graphs)
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ParseError(f"{labels_path.name}: graph {empty[0] + 1} has zero nodes")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    # Nodes grouped graph by graph, in file order within a graph.
    order = np.argsort(graph_id, kind="stable")

    # The tables are read in helpers, so that their intermediates are freed
    # before the graphs are built.
    lo, hi, cuts = _tu_edges(required("A"), graph_id, order, starts)
    edges = list(zip(lo, hi))
    features = _tu_features(root, prefix, n_nodes)[order]

    label_space, labels = np.unique(raw_labels, return_inverse=True)
    starts = starts.tolist()
    # Every check of Graph.__post_init__ holds by now: each graph has a
    # node, a float64 feature row per node, all finite, and in-range,
    # canonical, duplicate-free edges.  So it is not run a second time.
    graphs = [
        _checked_graph(
            starts[g + 1] - starts[g],
            tuple(edges[cuts[g] : cuts[g + 1]]),
            features[starts[g] : starts[g + 1]],
            label,
        )
        for g, label in enumerate(labels.tolist())
    ]
    return GraphDataset(
        graphs=graphs,
        num_classes=len(label_space),
        feature_dim=features.shape[1],
        name=prefix,
    )


def _tu_edges(path: Path, graph_id: np.ndarray, order: np.ndarray, starts: np.ndarray):
    """Each graph's undirected edges as local (lo, hi) pairs, lo < hi,
    sorted, once each and without self-loops: graph g's are those from
    ``cuts[g]`` to ``cuts[g + 1]``.  ``order`` lists the nodes graph by
    graph, so a node's place in it minus its graph's start is its local
    index."""
    edge_file = _TuTable(path, np.int64, 2, "'i, j'")
    n_nodes = len(graph_id)
    ends = edge_file.rows
    outside = ((ends < 1) | (ends > n_nodes)).any(axis=1)
    ends = np.where(outside[:, None], 1, ends) - 1
    crossing = graph_id[ends[:, 0]] != graph_id[ends[:, 1]]
    bad = np.flatnonzero(outside | crossing)
    if bad.size:
        row = bad[0]
        if outside[row]:
            raise edge_file.error(row, "node id out of range", IndexOutOfRange)
        ga, gb = graph_id[ends[row]]
        raise edge_file.error(row, f"edge crosses graphs {ga} and {gb}")
    place = np.empty(n_nodes, dtype=np.int64)
    place[order] = np.arange(n_nodes)
    loop = ends[:, 0] == ends[:, 1]
    a, b = place[ends[~loop, 0]], place[ends[~loop, 1]]
    # One sorted key per undirected edge: graph first, then local (lo, hi).
    key = np.minimum(a, b) * n_nodes + np.maximum(a, b)
    key.sort()
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    lo, hi = key // n_nodes, key % n_nodes
    cuts = np.searchsorted(lo, starts)
    offsets = np.repeat(starts[:-1], np.diff(cuts))
    return (lo - offsets).tolist(), (hi - offsets).tolist(), cuts.tolist()


def _tu_features(root: Path, prefix: str, n_nodes: int) -> np.ndarray:
    """Node features in file order: the attributes, else the node labels
    one-hot, else a constant 1."""
    attributes_path = root / f"{prefix}_node_attributes.txt"
    node_labels_path = root / f"{prefix}_node_labels.txt"
    if attributes_path.is_file():
        attributes = _TuTable(attributes_path, np.float64, None, "a row of numbers")
        features = attributes.rows
        non_finite = np.flatnonzero(~np.isfinite(features).all(axis=1))
        if non_finite.size:
            raise attributes.error(non_finite[0], "non-finite attribute")
        if len(features) != n_nodes:
            raise ParseError(f"{attributes_path.name}: {len(features)} rows for {n_nodes} nodes")
        return features
    if node_labels_path.is_file():
        node_labels = _TuTable(node_labels_path, np.int64, 1, "an integer label").rows[:, 0]
        if len(node_labels) != n_nodes:
            raise ParseError(
                f"{node_labels_path.name}: {len(node_labels)} rows for {n_nodes} nodes"
            )
        # One column per distinct label, as graph labels are remapped.
        distinct, column = np.unique(node_labels, return_inverse=True)
        features = np.zeros((n_nodes, len(distinct)))
        features[np.arange(n_nodes), column] = 1.0
        return features
    return np.ones((n_nodes, 1))


def write_tu_fixture(dir_path, prefix: str = "FIXTURE") -> Path:
    """Write the tiny two-graph TU fixture (a triangle and a single edge)."""
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    # Edges appear in both directions, as in the public format.
    (root / f"{prefix}_A.txt").write_text(
        "1, 2\n2, 1\n1, 3\n3, 1\n2, 3\n3, 2\n4, 5\n5, 4\n"
    )
    (root / f"{prefix}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    (root / f"{prefix}_graph_labels.txt").write_text("1\n2\n")
    (root / f"{prefix}_node_labels.txt").write_text("0\n0\n1\n1\n2\n")
    return root


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass
class SynthSpec:
    """Recipe for a structurally labelled synthetic dataset.

    Each class draws its topology from one motif generator and its node
    features from a class-specific mean plus Gaussian noise.
    """

    n_graphs: int = 80
    motifs: Tuple[str, ...] = ("triangles", "star")
    nodes: Tuple[int, int] = (6, 10)
    feature_dim: int = 4
    noise: float = 0.8


def _motif_edges(motif: str, n: int) -> List[Tuple[int, int]]:
    if motif == "triangles":
        edges = []
        blocks = n // 3
        for b in range(blocks):
            a = 3 * b
            edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
            if b > 0:
                edges.append((a - 1, a))
        for leftover in range(3 * blocks, n):
            edges.append((leftover - 1, leftover))
        return edges
    if motif == "star":
        return [(0, i) for i in range(1, n)]
    if motif == "ring":
        return [(i, (i + 1) % n) for i in range(n)]
    if motif == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if motif == "clique":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise BadSpec(f"unknown motif {motif!r}")


def synth_generate(spec: SynthSpec, seed: int) -> GraphDataset:
    """Deterministically generate a motif-labelled dataset for a seed.

    Labels are assigned round-robin, so class counts balance within one.
    A noise so large that a feature overflows raises NonFiniteInput.
    """
    classes = len(spec.motifs)
    if classes < 1:
        raise BadSpec("need at least one motif class")
    if len(set(spec.motifs)) != classes:
        raise BadSpec("class motifs must be distinct")
    for motif in spec.motifs:
        if motif not in MOTIFS:
            raise BadSpec(f"unknown motif {motif!r}")
    if spec.n_graphs < classes:
        raise BadSpec("n_graphs must be >= number of classes")
    lo, hi = spec.nodes
    if lo < 3 or hi < lo:
        raise BadSpec("node range must satisfy 3 <= lo <= hi")
    if spec.feature_dim < 1:
        raise BadSpec("feature_dim must be >= 1")
    if spec.noise < 0:
        raise BadSpec("noise must be >= 0")

    rng = np.random.default_rng(seed)
    means = np.zeros((classes, spec.feature_dim))
    for c in range(classes):
        means[c, c % spec.feature_dim] = 1.0
    graphs = []
    # A noise that overflows a feature leaves an inf, which Graph refuses.
    with np.errstate(over="ignore"):
        for idx in range(spec.n_graphs):
            label = idx % classes
            n = int(rng.integers(lo, hi + 1))
            feats = means[label] + spec.noise * rng.standard_normal((n, spec.feature_dim))
            edges = tuple(_motif_edges(spec.motifs[label], n))
            try:
                graphs.append(Graph(n=n, edges=edges, features=feats, label=label))
            except ValueError as exc:  # the motif edges are valid, so the features are not
                raise NonFiniteInput(f"noise {spec.noise!r} overflows a node feature") from exc
    return GraphDataset(
        graphs=graphs, num_classes=classes, feature_dim=spec.feature_dim, name="synth"
    )


# ---------------------------------------------------------------------------
# Splitting and partitioning


def split_dataset(
    d: GraphDataset, ratios: Tuple[float, float, float], seed: int
) -> Tuple[GraphDataset, GraphDataset, GraphDataset]:
    """Shuffle deterministically and split into train/val/test.

    Validation and test sizes are floors of their ratios; the remainder
    lands in train.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise BadRatios(f"need three non-negative ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(d)
    n_val = int(math.floor(n * ratios[1]))
    n_test = int(math.floor(n * ratios[2]))
    n_train = n - n_val - n_test
    perm = np.random.default_rng(seed).permutation(n)
    return (
        d.subset(perm[:n_train], name=f"{d.name}/train"),
        d.subset(perm[n_train : n_train + n_val], name=f"{d.name}/val"),
        d.subset(perm[n_train + n_val :], name=f"{d.name}/test"),
    )


def partition_clients(
    pool: Sequence[GraphDataset],
    k: int,
    mode: str,
    skew: float = 0.3,
    seed: int = 0,
) -> ClientPartition:
    """Assign dataset indices to k clients.

    ``iid`` shuffles one dataset into near-equal shares, ``label_skew``
    splits each class across clients by Dirichlet(skew) proportions, and
    ``cross_dataset`` gives client i the whole i-th pool entry.
    """
    if k < 1:
        raise BadMode("need at least one client")
    if mode == MODE_CROSS_DATASET:
        if len(pool) != k:
            raise BadMode(f"cross_dataset needs exactly {k} datasets, got {len(pool)}")
        return ClientPartition({i: tuple(range(len(pool[i]))) for i in range(k)})
    if mode not in (MODE_IID, MODE_LABEL_SKEW):
        raise BadMode(f"unknown partition mode {mode!r}")
    if len(pool) != 1:
        raise BadMode(f"{mode} partitioning needs a single dataset pool")
    data = pool[0]
    rng = np.random.default_rng(seed)
    shares: List[List[int]] = [[] for _ in range(k)]
    if mode == MODE_IID:
        for cid, chunk in enumerate(np.array_split(rng.permutation(len(data)), k)):
            shares[cid] = list(chunk)
    else:
        if skew <= 0:
            raise BadMode("label_skew needs a positive Dirichlet concentration")
        labels = data.labels()
        for cls in range(data.num_classes):
            idx = np.nonzero(labels == cls)[0]
            rng.shuffle(idx)
            proportions = rng.dirichlet(np.full(k, skew))
            cuts = (np.cumsum(proportions) * len(idx)).astype(int)[:-1]
            for cid, chunk in enumerate(np.split(idx, cuts)):
                shares[cid].extend(chunk)
    return ClientPartition({cid: tuple(sorted(int(i) for i in shares[cid])) for cid in range(k)})


def pad_to_common(pool: Sequence[GraphDataset]) -> List[GraphDataset]:
    """Zero-pad features and unify the label-space size across datasets."""
    d_max = max(ds.feature_dim for ds in pool)
    c_max = max(ds.num_classes for ds in pool)
    out = []
    for ds in pool:
        pad = d_max - ds.feature_dim
        graphs = [
            Graph(
                n=g.n,
                edges=g.edges,
                features=np.pad(g.features, ((0, 0), (0, pad))) if pad else g.features,
                label=g.label,
            )
            for g in ds.graphs
        ]
        out.append(
            GraphDataset(graphs=graphs, num_classes=c_max, feature_dim=d_max, name=ds.name)
        )
    return out
