"""Graph classification datasets: TU-format ingestion, synthetic generation,
train/val/test splitting, client partitioning and size-grouped batches.

A dataset is one collated store of flat arrays, as in PyTorch Geometric's
``InMemoryDataset``: per-graph node, edge and label arrays, every graph's
edges as ascending local (lo, hi) node ids, and every graph's feature rows
stacked.
They are checked once, over whole arrays, when a dataset is built; a
subset, a split and a batch gather index ranges from them.  The records
of ``GraphDataset.graphs`` are for readers outside the package.

Everything here is a pure function of its inputs and an explicit seed, so
datasets and partitions are reproducible and safely shareable.  A TU
dataset's parsed arrays are also kept in a cache file beside its text
files, which a later load reads back in place of the text.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, islice
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AmbiguousDataset,
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

log = logging.getLogger(__name__)


class Graph(NamedTuple):
    """One graph as ``GraphDataset.graphs`` lists it: its node count, its
    edges as (lo, hi) pairs of local node ids, a view of its feature rows,
    and its label.  A record holds no checks of its own; its dataset's
    arrays were checked."""

    n: int
    edges: Tuple[Tuple[int, int], ...]
    features: np.ndarray
    label: int


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
    """A dataset's graphs as one disjoint union, sorted stably by node count.

    Batch order is the dataset's order sorted by node count, equal counts
    kept in that order, so each node count's graphs form one ``SizeGroup`` run
    and one stacked matmul per group does every neighbour sum, while
    adjacency storage stays the sum of n_i^2 over the graphs: nothing is
    padded to the largest graph.  ``len`` is the number of graphs;
    ``labels`` and ``sizes`` follow batch order, and each graph's nodes are
    the ``sizes[i]`` consecutive feature rows from ``starts[i]``, so one
    ``np.add.reduceat`` over the rows sums every graph's nodes.
    """

    def __init__(self, data: GraphDataset):
        if not len(data):
            raise ValueError("a batch needs at least one graph")
        part = data.subset(np.argsort(data.sizes, kind="stable"))
        self.sizes = part.sizes.astype(np.int64)
        self.labels = part.labels.astype(np.int64)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.features = part.features
        # Every graph's n x n adjacency, graph after graph in one buffer, set
        # by one scatter per edge direction; each group's is a view of it.
        counts = part.edge_counts.astype(np.intp)
        area = self.sizes * self.sizes
        at = np.cumsum(area) - area
        adjacency = np.zeros(area.sum())
        ends = part.ends.astype(np.intp)
        base, n = np.repeat(at, counts), np.repeat(self.sizes, counts)
        adjacency[base + ends[:, 0] * n + ends[:, 1]] = 1.0
        adjacency[base + ends[:, 1] * n + ends[:, 0]] = 1.0
        self.groups: List[SizeGroup] = []
        first = start = 0
        for n, run in groupby(self.sizes.tolist()):
            k = len(list(run))
            adj = adjacency[at[first] : at[first] + k * n * n].reshape(k, n, n)
            self.groups.append(SizeGroup(n, slice(start, start + k * n), adj))
            first, start = first + k, start + k * n

    def __len__(self) -> int:
        return len(self.labels)


def _bounds(counts: np.ndarray) -> np.ndarray:
    """0, then the running sums of ``counts``: laid end to end, run i spans
    ``bounds[i]`` to ``bounds[i + 1]``."""
    return np.concatenate(([0], counts.astype(np.intp).cumsum()))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The indices ``start, ..., start + length - 1`` of each range in turn,
    and the bounds (``_bounds``) of the ranges laid end to end."""
    bounds = _bounds(lengths)
    return (starts - bounds[:-1]).repeat(lengths) + np.arange(bounds[-1]), bounds


def _narrow(values, top=0) -> np.ndarray:
    """Non-negative ints in the narrowest unsigned dtype that holds them and
    ``top``; ValueError for a negative one."""
    values = np.asarray(values, dtype=np.int64)
    if values.min(initial=0) < 0:
        raise ValueError("a negative node count, label, edge count or edge end")
    return values.astype(np.min_scalar_type(max(values.max(initial=0), top)))


# A dataset's arrays, in the order its constructor and its TU cache take them.
_FLAT_KEYS = ("sizes", "labels", "edge_counts", "ends", "features")


class GraphDataset:
    """Graphs sharing a feature and label space, as flat arrays.

    ``sizes``, ``labels`` and ``edge_counts`` hold one entry per graph,
    ``ends`` every graph's edges in turn as ascending (lo, hi) rows of
    local node ids, and ``features`` every graph's node rows in turn.  The
    constructor stores the counts, labels and ends in the narrowest
    unsigned dtype that holds them (for the ends, that holds the largest
    graph's node ids) and raises ValueError unless the arrays pass
    ``_check_flat``.  A pickle (a checkpoint) holds the arrays, the class
    count and the name.
    """

    def __init__(self, sizes, labels, edge_counts, ends, features, num_classes: int, name=""):
        sizes = _narrow(sizes)
        ends = _narrow(ends, sizes.max(initial=1) - 1)
        flat = dict(zip(_FLAT_KEYS, (sizes, _narrow(labels), _narrow(edge_counts), ends, features)))
        _check_flat(num_classes, flat)
        vars(self).update(flat, num_classes=num_classes, name=name)

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    # The cached values below assume that the arrays do not change.

    @cached_property
    def batch(self) -> GraphBatch:
        """All graphs as one batch, built on first use."""
        return GraphBatch(self)

    @cached_property
    def _offsets(self) -> Tuple[np.ndarray, np.ndarray]:
        """The bounds (``_bounds``) of each graph's feature rows and edges."""
        return _bounds(self.sizes), _bounds(self.edge_counts)

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k not in ("batch", "_offsets")}

    @property
    def graphs(self) -> List[Graph]:
        """The graphs as records, built on each read, each edge a pair of
        Python ints; the package itself reads the arrays."""
        edges = list(zip(*self.ends.T.tolist()))
        rows, cuts = (offsets.tolist() for offsets in self._offsets)
        sizes, counts, labels = (a.tolist() for a in (self.sizes, self.edge_counts, self.labels))
        return [
            Graph(n, tuple(edges[cut : cut + e]), self.features[row : row + n], label)
            for n, e, label, row, cut in zip(sizes, counts, labels, rows, cuts)
        ]

    def subset(self, indices: Sequence[int], name: str = "") -> "GraphDataset":
        """The graphs at ``indices``, in that order, gathered as index ranges
        of the arrays; a subset of checked arrays is not checked again."""
        index = np.asarray(indices, dtype=np.intp)
        sizes, edge_counts = self.sizes[index], self.edge_counts[index]
        rows, cuts = self._offsets
        row_index, row_bounds = _ranges(rows[index], sizes)
        edge_index, edge_bounds = _ranges(cuts[index], edge_counts)
        ends, features = self.ends.take(edge_index, axis=0), self.features.take(row_index, axis=0)
        labels, name = self.labels[index], name or self.name
        part = _dataset(self.num_classes, name, sizes, labels, edge_counts, ends, features)
        part._offsets = row_bounds, edge_bounds  # known from the gather
        return part

    def _slice(self, start: int, stop: int, name: str) -> "GraphDataset":
        """Graphs ``start`` to ``stop`` as views of the arrays."""
        rows, cuts = self._offsets
        per_graph = (a[start:stop] for a in (self.sizes, self.labels, self.edge_counts))
        ends = self.ends[cuts[start] : cuts[stop]]
        features = self.features[rows[start] : rows[stop]]
        return _dataset(self.num_classes, name, *per_graph, ends, features)


def _dataset(num_classes: int, name: str, *flat: np.ndarray) -> GraphDataset:
    """A dataset of arrays (``_FLAT_KEYS``, in order) that hold
    ``_check_flat`` already: a subset's, a slice's, or a TU cache's that
    passed its checks."""
    ds = object.__new__(GraphDataset)
    vars(ds).update(zip(_FLAT_KEYS, flat), num_classes=num_classes, name=name)
    return ds


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

    A directory holding several ``*_A.txt`` files is refused with
    AmbiguousDataset, which names every prefix.

    Each table is parsed in one pass and every check runs once, vectorized
    over the whole table: ids in range and 1-based, no edge across graphs,
    no graph without nodes, one finite feature row per node.  Edges become
    canonical (lo, hi) pairs, sorted, with repeats and self-loops dropped.
    The arrays then pass the dataset constructor's checks.

    The parsed arrays are saved to ``<DS>.cefgl.npy`` beside the files,
    keyed by a SHA-256 of the files the load reads.  A later load whose
    files hash to the same key reads the arrays from there instead, after
    ``_read_tu_cache``'s checks; any other cache is ignored and rewritten,
    and a cache that cannot be written is left out.  One DEBUG line says
    which.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise MissingFile(f"dataset directory {root} does not exist")
    prefixes = sorted(p.name[: -len("_A.txt")] for p in root.glob("*_A.txt"))
    if not prefixes:
        raise MissingFile(f"no *_A.txt edge file under {root}")
    if len(prefixes) > 1:
        raise AmbiguousDataset(f"{root} holds several datasets: {', '.join(prefixes)}")
    (prefix,) = prefixes

    def required(suffix: str) -> Path:
        p = root / f"{prefix}_{suffix}.txt"
        if not p.is_file():
            raise MissingFile(f"missing {p.name} in {root}")
        return p

    sources = [required("graph_indicator"), required("graph_labels"), required("A")]
    for suffix in ("node_attributes", "node_labels"):
        if (root / f"{prefix}_{suffix}.txt").is_file():
            sources.append(root / f"{prefix}_{suffix}.txt")
            break
    cache = root / f"{prefix}{TU_CACHE_SUFFIX}"
    key = _tu_cache_key(sources)
    try:
        ds = _read_tu_cache(cache, key, prefix)
        outcome = "hit"
    except FileNotFoundError:
        outcome = "miss"
    except (OSError, ValueError) as exc:
        outcome = f"refused ({exc})"
    if outcome != "hit":
        ds = GraphDataset(*_parse_tu(*sources), name=prefix)
        outcome += _write_tu_cache(cache, key, ds)
    log.debug("%s: TU cache %s", cache, outcome)
    return ds


def _parse_tu(
    indicator_path: Path,
    labels_path: Path,
    edges_path: Path,
    feature_path: Optional[Path] = None,
) -> tuple:
    """The dataset the TU text files hold, as ``GraphDataset``'s arguments
    but the name: the arrays (``_FLAT_KEYS``) and the class count."""
    indicator = _TuTable(indicator_path, np.int64, 1, "a graph id")
    graph_id = indicator.rows[:, 0]
    n_nodes = len(graph_id)
    if not n_nodes:
        raise ParseError(f"{indicator.path.name}:1: no nodes declared")
    below = np.flatnonzero(graph_id < 1)
    if below.size:
        raise indicator.error(below[0], "graph ids are 1-based")

    raw_labels = _TuTable(labels_path, np.int64, 1, "an integer label").rows[:, 0]
    n_graphs = len(raw_labels)
    if graph_id.max() > n_graphs:
        raise ParseError(
            f"{indicator.path.name}: node assigned to graph {graph_id.max()} "
            f"but only {n_graphs} labels present"
        )
    graph_id = graph_id.astype(np.min_scalar_type(n_graphs))
    del indicator  # its int64 table
    sizes = np.bincount(graph_id, minlength=n_graphs + 1)[1:]
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ParseError(f"{labels_path.name}: graph {empty[0] + 1} has zero nodes")
    starts = np.concatenate(([0], np.cumsum(sizes)))
    # Nodes grouped graph by graph, in file order within a graph.  Most
    # files list them so already, and then the features are not gathered.
    order = np.argsort(graph_id, kind="stable")
    # The tables are read in helpers, so that their intermediates are freed
    # before the next one is read.
    ends, edge_counts = _tu_edges(edges_path, graph_id, order, starts)
    features = _tu_features(feature_path, n_nodes)
    if (graph_id[1:] < graph_id[:-1]).any():
        features = features[order]
    label_space, labels = np.unique(raw_labels, return_inverse=True)
    # By now each graph has a node and in-range, ascending, duplicate-free
    # edges, and every label is used, as _read_tu_cache requires.
    return sizes, labels, edge_counts, ends, features, len(label_space)


def _tu_edges(path: Path, graph_id: np.ndarray, order: np.ndarray, starts: np.ndarray):
    """Each graph's undirected edges as local (lo, hi) rows, lo < hi,
    sorted, once each and without self-loops, graph after graph, and each
    graph's edge count."""
    lo, hi = np.divmod(_tu_edge_keys(path, graph_id, order), len(graph_id))
    edge_counts = np.diff(np.searchsorted(lo, starts))
    offsets = np.repeat(starts[:-1], edge_counts)
    lo -= offsets
    hi -= offsets
    return _narrow(np.column_stack((lo, hi))), edge_counts


def _tu_edge_keys(path: Path, graph_id: np.ndarray, order: np.ndarray) -> np.ndarray:
    """One key per undirected edge of the edge file, lo * nodes + hi over
    the places of its ends in ``order``, lo < hi, sorted, once each and
    without self-loops.  ``order`` lists the nodes graph by graph, so a
    node's place in it minus its graph's start is its local index."""
    edge_file = _TuTable(path, np.int64, 2, "'i, j'")
    n_nodes = len(graph_id)
    ends = edge_file.rows
    outside = ((ends < 1) | (ends > n_nodes)).any(axis=1)
    ends -= 1  # zero-based, in place
    ends[outside] = 0
    # Whole-table gathers: a column as an index would be copied first.
    owner = graph_id[ends]
    bad = np.flatnonzero(outside | (owner[:, 0] != owner[:, 1]))
    if bad.size:
        row = bad[0]
        if outside[row]:
            raise edge_file.error(row, "node id out of range", IndexOutOfRange)
        ga, gb = owner[row]
        raise edge_file.error(row, f"edge crosses graphs {ga} and {gb}")
    place = np.empty(n_nodes, dtype=np.min_scalar_type(n_nodes))
    place[order] = np.arange(n_nodes)
    a, b = place[ends].T
    del edge_file, ends, owner  # the tables, before the keys are built
    keep = a != b
    key = np.minimum(a, b)[keep].astype(np.int64)
    key *= n_nodes
    key += np.maximum(a, b)[keep]
    key.sort()
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return key[first]


def _tu_features(path: Optional[Path], n_nodes: int) -> np.ndarray:
    """Node features in file order: the attributes, the node labels one-hot,
    or, without a feature file, a constant 1."""
    if path is None:
        return np.ones((n_nodes, 1))
    if path.name.endswith("_node_attributes.txt"):
        attributes = _TuTable(path, np.float64, None, "a row of numbers")
        features = attributes.rows
        non_finite = np.flatnonzero(~np.isfinite(features).all(axis=1))
        if non_finite.size:
            raise attributes.error(non_finite[0], "non-finite attribute")
        if len(features) != n_nodes:
            raise ParseError(f"{path.name}: {len(features)} rows for {n_nodes} nodes")
        return features
    node_labels = _TuTable(path, np.int64, 1, "an integer label").rows[:, 0]
    if len(node_labels) != n_nodes:
        raise ParseError(f"{path.name}: {len(node_labels)} rows for {n_nodes} nodes")
    # One column per distinct label, as graph labels are remapped.
    distinct, column = np.unique(node_labels, return_inverse=True)
    features = np.zeros((n_nodes, len(distinct)))
    features[np.arange(n_nodes), column] = 1.0
    return features


# ---------------------------------------------------------------------------
# The TU cache: a parsed dataset's flat arrays, beside its text files

TU_CACHE_VERSION = 1
TU_CACHE_SUFFIX = ".cefgl.npy"
_HASH_CHUNK = 1 << 18


def _tu_cache_key(sources: Sequence[Path]) -> bytes:
    """SHA-256 over the cache version and, in turn, each source file's name,
    bytes and byte count, read in chunks."""
    digest = hashlib.sha256(b"cefgl TU cache %d\n" % TU_CACHE_VERSION)
    chunk = bytearray(_HASH_CHUNK)
    view = memoryview(chunk)
    for path in sources:
        digest.update(os.fsencode(path.name) + b"\n")
        length = 0
        with open(path, "rb") as fh:
            while size := fh.readinto(chunk):
                digest.update(view[:size])
                length += size
        digest.update(length.to_bytes(8, "little"))
    return digest.digest()


def _write_atomic(path, write) -> None:
    """Call ``write`` on a binary file beside ``path``, then rename that file
    onto ``path``.  If ``write`` raises, the file goes and ``path`` is as it
    was, so no reader sees a truncated file.  The harness writes its run
    files through it too; it is private so that a tracer of the public
    functions counts the time to the caller, as before."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_tu_cache(path: Path, key: bytes, ds: GraphDataset) -> str:
    """Save the version, the key, the class count and the dataset's arrays
    as consecutive ``.npy`` records; say for the log whether that worked."""
    records = (
        np.array(TU_CACHE_VERSION, dtype=np.uint32),
        np.frombuffer(key, dtype=np.uint8),
        np.array(ds.num_classes, dtype=np.uint64),
        *(getattr(ds, k) for k in _FLAT_KEYS),
    )

    def write(fh):
        for record in records:  # np.save writes a real file's array with no copy
            np.save(fh, record, allow_pickle=False)

    try:
        _write_atomic(path, write)
    except OSError as exc:
        return f", not written ({exc})"
    return ", written"


def _read_record(fh, size: int) -> np.ndarray:
    """The next ``.npy`` record of a file of ``size`` bytes: unsigned,
    signed or float, and refused before it is read if it declares more
    bytes than the file has left."""
    start = fh.tell()
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
    else:
        raise ValueError(f"record at byte {start}: .npy version {version}")
    if dtype.kind not in "uif" or any(d < 0 for d in shape):
        raise ValueError(f"record at byte {start}: {dtype} array of shape {shape}")
    declared, left = math.prod(shape) * dtype.itemsize, size - fh.tell()
    if declared > left:
        raise ValueError(f"record at byte {start}: declares {declared} bytes, {left} left")
    fh.seek(start)
    return np.load(fh, allow_pickle=False)


def _read_tu_cache(path: Path, key: bytes, name: str) -> GraphDataset:
    """The dataset a cache written under ``key`` holds, named ``name``.
    Raises FileNotFoundError without a cache, and OSError or ValueError
    naming the first check it fails."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        version = _read_record(fh, size)
        if version.shape != () or version.dtype.kind != "u" or version != TU_CACHE_VERSION:
            raise ValueError(f"version {version.tolist()}, not {TU_CACHE_VERSION}")
        if _read_record(fh, size).tobytes() != key:
            raise ValueError("key differs from the TU files' SHA-256")
        classes = _read_record(fh, size)
        flat = {k: _read_record(fh, size) for k in _FLAT_KEYS}
        if fh.read(1):
            raise ValueError("bytes after the last record")
    if classes.shape != () or classes.dtype.kind != "u":
        raise ValueError(f"class count {classes!r}")
    num_classes = int(classes)
    # The dataset's invariants, and on top what only the parser guarantees:
    # every class used, so at least one graph.
    _check_flat(num_classes, flat)
    if not np.bincount(flat["labels"].astype(np.intp), minlength=num_classes).all():
        raise ValueError("a class without graphs")
    return _dataset(num_classes, name, *flat.values())


def _check_flat(num_classes: int, flat: dict) -> None:
    """Raise ValueError unless the flat arrays are a dataset's: unsigned
    counts, labels and ends, at least one node per graph, one finite
    float64 feature row per node, labels below the class count, and each
    graph's edges ``lo < hi < n`` in strictly ascending order, so none
    repeats.  Every check runs once over whole arrays."""
    sizes, labels, edge_counts, ends, features = (flat[k] for k in _FLAT_KEYS)
    for name in ("sizes", "labels", "edge_counts", "ends"):
        if flat[name].dtype.kind != "u":
            raise ValueError(f"{name}: {flat[name].dtype}, not an unsigned integer type")
    if sizes.ndim != 1 or sizes.min(initial=1) < 1:
        raise ValueError("a graph without nodes")
    n_graphs = len(sizes)
    if labels.shape != (n_graphs,) or edge_counts.shape != (n_graphs,):
        raise ValueError("labels or edge counts do not match the graphs")
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError(f"edge ends of shape {ends.shape}")
    if features.dtype != np.float64 or features.ndim != 2 or not features.shape[1]:
        raise ValueError(f"features: {features.dtype} array of shape {features.shape}")
    if not features.flags.c_contiguous:
        raise ValueError("features not in C order")
    # Each bound is checked before the sum it keeps from wrapping.
    n_rows = len(features)
    if sizes.max(initial=0) > n_rows or sizes.sum() != n_rows:
        raise ValueError(f"node counts do not sum to the {n_rows} feature rows")
    if not np.isfinite(features).all():
        raise ValueError("a non-finite feature")
    if num_classes < 1 or labels.max(initial=0) >= num_classes:
        raise ValueError(f"a label at or above the class count {num_classes}")
    if edge_counts.max(initial=0) > len(ends) or edge_counts.sum() != len(ends):
        raise ValueError(f"edge counts do not sum to the {len(ends)} edges")
    if ends.max(initial=0) >= sizes.max(initial=1):
        raise ValueError("an edge end outside its graph")
    lo, hi = ends.T
    counts = edge_counts.astype(np.intp)
    if not ((lo < hi) & (hi < np.repeat(sizes, counts))).all():
        raise ValueError("an edge not lo < hi < n within its graph")
    # Each edge's key, (its graph's first row + lo) * rows + its graph's
    # first row + hi, ascends exactly when every graph's edges do.  It is
    # worked out in place, so that the check holds few copies.
    first = np.repeat(_bounds(sizes)[:-1], counts)
    key = lo.astype(np.intp)
    key += first
    key *= n_rows
    key += first
    key += hi.astype(np.intp)
    if (key[1:] <= key[:-1]).any():
        raise ValueError("a graph's edges repeat or are out of order")


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
            if b > 0:
                edges.append((a - 1, a))
            edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        for leftover in range(3 * blocks, n):
            edges.append((leftover - 1, leftover))
        return edges
    if motif == "star":
        return [(0, i) for i in range(1, n)]
    if motif == "ring":
        return [(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)]
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
    labels = [idx % classes for idx in range(spec.n_graphs)]
    sizes, features, edges = [], [], []
    # A noise that overflows a feature leaves an inf, which the dataset refuses.
    with np.errstate(over="ignore"):
        for label in labels:
            n = int(rng.integers(lo, hi + 1))
            features.append(means[label] + spec.noise * rng.standard_normal((n, spec.feature_dim)))
            edges.append(_motif_edges(spec.motifs[label], n))
            sizes.append(n)
    counts = [len(e) for e in edges]
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(edges)), dtype=np.int64)
    features = np.concatenate(features)
    try:
        return GraphDataset(sizes, labels, counts, ends.reshape(-1, 2), features, classes, "synth")
    except ValueError as exc:  # the motif edges are valid, so the features are not
        raise NonFiniteInput(f"noise {spec.noise!r} overflows a node feature") from exc


# ---------------------------------------------------------------------------
# Splitting and partitioning


def split_dataset(
    d: GraphDataset, ratios: Tuple[float, float, float], seed: int, indices=None, name: str = ""
) -> Tuple[GraphDataset, GraphDataset, GraphDataset]:
    """Shuffle the graphs at ``indices`` (all of ``d``'s by default)
    deterministically and split them into train/val/test, named
    ``<name>/train`` and so on (``name`` defaults to ``d``'s).

    Validation and test sizes are floors of their ratios; the remainder
    lands in train.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise BadRatios(f"need three non-negative ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must sum to 1, got {sum(ratios)}")
    index = np.arange(len(d)) if indices is None else np.asarray(indices, dtype=np.intp)
    n = len(index)
    n_val = int(math.floor(n * ratios[1]))
    n_test = int(math.floor(n * ratios[2]))
    n_train = n - n_val - n_test
    # One gather in shuffled order; each split is a run of it.
    shuffled = d.subset(index[np.random.default_rng(seed).permutation(n)])
    cuts = (0, n_train, n_train + n_val, n)
    return tuple(
        shuffled._slice(start, stop, f"{name or d.name}/{part}")
        for start, stop, part in zip(cuts, cuts[1:], ("train", "val", "test"))
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
        labels = data.labels
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
        features = np.pad(ds.features, ((0, 0), (0, d_max - ds.feature_dim)))
        flat = (ds.sizes, ds.labels, ds.edge_counts, ds.ends, features)
        out.append(GraphDataset(*flat, c_max, ds.name))
    return out
