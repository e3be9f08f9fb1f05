import gc
import pickle
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from cefgl import graphdata
from cefgl.errors import (
    BadMode,
    BadRatios,
    BadSpec,
    IndexOutOfRange,
    MissingFile,
    NonFiniteInput,
    ParseError,
)
from cefgl.graphdata import SynthSpec


@pytest.fixture
def tu_dir(tmp_path):
    return graphdata.write_tu_fixture(tmp_path / "fixture")


def reference_load_tu(root: Path, prefix: str) -> graphdata.GraphDataset:
    """The line-by-line loader that ``load_tu_dataset`` replaced, kept as the
    reference for valid input (its refusals are covered by the tests)."""

    def read(suffix):
        with open(root / f"{prefix}_{suffix}.txt", "r", encoding="utf-8") as fh:
            return [line.strip() for line in fh if line.strip()]

    node_graph = [int(line) for line in read("graph_indicator")]
    raw_labels = [int(line) for line in read("graph_labels")]
    n_nodes = len(node_graph)
    members = [[] for _ in raw_labels]
    for node, gid in enumerate(node_graph):
        members[gid - 1].append(node)
    local_index = {}
    for mem in members:
        for pos, node in enumerate(mem):
            local_index[node] = pos
    edges_per_graph = [set() for _ in raw_labels]
    for line in read("A"):
        a, b = (int(piece.strip()) for piece in line.split(","))
        la, lb = local_index[a - 1], local_index[b - 1]
        if la != lb:
            edges_per_graph[node_graph[a - 1] - 1].add((min(la, lb), max(la, lb)))
    if (root / f"{prefix}_node_attributes.txt").is_file():
        rows = [[float(tok) for tok in line.split(",")] for line in read("node_attributes")]
        features = np.asarray(rows, dtype=np.float64)
    elif (root / f"{prefix}_node_labels.txt").is_file():
        node_labels = [int(line) for line in read("node_labels")]
        distinct, column = np.unique(node_labels, return_inverse=True)
        features = np.zeros((n_nodes, len(distinct)))
        features[np.arange(n_nodes), column] = 1.0
    else:
        features = np.ones((n_nodes, 1))
    label_space = sorted(set(raw_labels))
    remap = {lab: i for i, lab in enumerate(label_space)}
    graphs = [
        graphdata.Graph(
            n=len(mem),
            edges=tuple(sorted(edges_per_graph[gid])),
            features=features[mem],
            label=remap[raw_labels[gid]],
        )
        for gid, mem in enumerate(members)
    ]
    return graphdata.GraphDataset(
        graphs=graphs, num_classes=len(label_space), feature_dim=features.shape[1], name=prefix
    )


def write_random_tu(root: Path, seed: int, features: str) -> None:
    """A valid TU directory in the awkward forms the format allows: graph ids
    interleaved in the indicator, edges listed in one or both directions,
    repeated and self-looped, gaps in the label values, blank,
    whitespace-only and CRLF lines, and (for some seeds) no edges at all."""
    rng = np.random.default_rng(seed)
    n_graphs = int(rng.integers(1, 10))
    node_graph = np.repeat(np.arange(1, n_graphs + 1), rng.integers(1, 7, size=n_graphs))
    rng.shuffle(node_graph)
    edges = []
    if seed % 5:
        for gid in range(1, n_graphs + 1):
            nodes = np.flatnonzero(node_graph == gid) + 1
            for a, b in rng.choice(nodes, size=(int(rng.integers(0, 8)), 2)):
                edges += [(a, b)] * int(rng.integers(1, 3))
                if rng.random() < 0.6:
                    edges.append((b, a))
        rng.shuffle(edges)
    n_nodes = len(node_graph)
    spaced = (", ", ",", " , ", "\t,  ")
    files = {
        "A": [f"{a}{spaced[rng.integers(4)]}{b}" for a, b in edges],
        "graph_indicator": [str(g) for g in node_graph],
        "graph_labels": [str(v) for v in rng.choice([-4, 0, 3, 9, 250], size=n_graphs)],
    }
    if features == "attributes":
        values = rng.normal(scale=10.0, size=(n_nodes, int(rng.integers(1, 4))))
        files["node_attributes"] = [
            ", ".join(repr(float(v)) if rng.random() < 0.7 else f"{v:.3g}" for v in row)
            for row in values
        ]
    elif features == "node_labels":
        files["node_labels"] = [str(v) for v in rng.choice([-1, 2, 5, 17], size=n_nodes)]
    root.mkdir()
    for suffix, lines in files.items():
        text = []
        for line in lines:
            text += [" \t", ""] * int(rng.random() < 0.2) + [line]
        newline = "\r\n" if rng.random() < 0.5 else "\n"
        (root / f"RAND_{suffix}.txt").write_bytes((newline.join(text) + newline).encode())


def write_ring_tu(root: Path, n_graphs: int, seed: int) -> None:
    """A valid TU directory of ``n_graphs`` rings of 6 to 20 nodes, each
    edge listed in both directions, with four ``repr`` attributes a node."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(6, 21, size=n_graphs)
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    node = np.arange(sizes.sum())
    succ = starts + (node - starts + 1) % np.repeat(sizes, sizes)
    files = {
        "A": [f"{a}, {b}\n{b}, {a}" for a, b in zip(node + 1, succ + 1)],
        "graph_indicator": [str(g) for g in np.repeat(np.arange(1, n_graphs + 1), sizes)],
        "graph_labels": [str(v) for v in rng.integers(0, 3, size=n_graphs)],
        "node_attributes": [
            ",".join(map(repr, row)) for row in rng.normal(size=(len(node), 4)).tolist()
        ],
    }
    root.mkdir()
    for suffix, lines in files.items():
        (root / f"RING_{suffix}.txt").write_text("\n".join(lines) + "\n")


# Malformed TU files, written over the fixture: (id, file, text, error, the
# line the message names, or None where no single line is at fault).
TU_REFUSALS = [
    ("indicator-token", "graph_indicator", "1\n1\nx\n2\n2\n", ParseError, 3),
    ("indicator-comment", "graph_indicator", "# ids\n1\n1\n1\n2\n2\n", ParseError, 1),
    ("indicator-graph-0", "graph_indicator", "1\n1\n0\n2\n2\n", ParseError, 3),
    ("indicator-non-utf8", "graph_indicator", b"1\n\xff\n", ParseError, None),
    ("labels-token", "graph_labels", "1\ntwo\n", ParseError, 2),
    ("labels-non-utf8", "graph_labels", b"1\n2\xe9\n", ParseError, None),
    ("labels-comment", "graph_labels", "#1\n2\n", ParseError, 1),
    ("node-labels-token", "node_labels", "0\n0\n1.5\n1\n2\n", ParseError, 3),
    ("node-labels-comment", "node_labels", "0\n# one\n0\n1\n1\n2\n", ParseError, 2),
    ("node-labels-non-utf8", "node_labels", b"0\n0\n1\n1\n\xc3\n", ParseError, None),
    ("edge-token", "A", "1, 2\n2, x\n", ParseError, 2),
    ("edge-comment", "A", "# edges\n1, 2\n", ParseError, 1),
    ("edge-non-utf8", "A", b"1, 2\n2, 1\xff\n", ParseError, None),
    ("edge-1-field", "A", "1, 2\n3\n", ParseError, 2),
    ("edge-3-fields", "A", "1, 2, 3\n", ParseError, 1),
    ("edge-node-0", "A", "0, 1\n", IndexOutOfRange, 1),
    ("edge-node-past-last", "A", "1, 2\n5, 6\n", IndexOutOfRange, 2),
    ("edge-cross-graph", "A", "1, 2\n3, 4\n", ParseError, 2),
    ("attributes-ragged", "node_attributes", "1, 2\n1, 2\n1, 2, 3\n1, 2\n1, 2\n", ParseError, 3),
    ("attributes-nan", "node_attributes", "1\n1\nnan\n1\n1\n", ParseError, 3),
    ("attributes-inf", "node_attributes", "1\n-inf\n1\n1\n1\n", ParseError, 2),
    ("attributes-token", "node_attributes", "1\n1\n1\n1\none\n", ParseError, 5),
    ("attributes-row-count", "node_attributes", "1\n1\n", ParseError, None),
    ("attributes-non-utf8", "node_attributes", b"1\n1\n1\n1\n0.5\x80\n", ParseError, None),
]


def triangle_count(g: graphdata.Graph) -> int:
    """Brute-force motif oracle over all node triples (a < b < c, so every
    pair is in the canonical (min, max) form that ``Graph.edges`` stores)."""
    edges = set(g.edges)
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if (a, b) in edges and (b, c) in edges and (a, c) in edges
    )


class TestGraph:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            graphdata.Graph(n=3, edges=((0, 1), (1, 0)), features=np.zeros((3, 1)), label=0)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            graphdata.Graph(n=2, edges=((0, 2),), features=np.zeros((2, 1)), label=0)

    def test_adjacency_is_symmetric(self):
        g = graphdata.Graph(n=3, edges=((1, 0), (1, 2)), features=np.zeros((3, 2)), label=0)
        # One canonical (min, max) entry per undirected edge, whatever order
        # it was given in; the adjacency a batch builds from them is symmetric.
        assert g.edges == ((0, 1), (1, 2))
        adj = graphdata.GraphBatch([g]).groups[0].adj[0]
        assert np.array_equal(adj, adj.T)
        assert adj.sum() == 4

    def test_batch_groups_hold_each_graphs_adjacency(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=40, nodes=(3, 9)), seed=5)
        batch = graphdata.GraphBatch(ds.graphs)
        ordered = sorted(ds.graphs, key=lambda g: g.n)
        rows, k = 0, 0
        for grp in batch.groups:
            assert grp.rows == slice(rows, rows + grp.adj.shape[0] * grp.n)
            for adj in grp.adj:
                g = ordered[k]
                want = np.zeros((g.n, g.n))
                for i, j in g.edges:
                    want[i, j] = want[j, i] = 1.0
                assert g.n == grp.n and np.array_equal(adj, want)
                k += 1
            rows = grp.rows.stop
        assert k == len(ds) and rows == len(batch.features)

    def test_equality_compares_fields_and_feature_bytes(self):
        def make(edges=((0, 1), (1, 2)), features=None):
            feats = np.arange(6.0).reshape(3, 2) if features is None else features
            return graphdata.Graph(n=3, edges=edges, features=feats, label=1)

        g, h = make(), make()
        assert g == h and not g != h
        flipped = np.arange(6.0).reshape(3, 2)
        flipped.view(np.uint64)[2, 1] ^= 1  # one bit of one feature
        assert g != make(features=flipped)
        assert g != make(edges=((0, 1), (0, 2)))
        assert g != make(features=np.arange(6.0).reshape(2, 3).T.copy())
        assert g != graphdata.Graph(n=3, edges=g.edges, features=g.features, label=0)
        a = graphdata.GraphDataset([g, make()], num_classes=2, feature_dim=2)
        assert a == graphdata.GraphDataset([make(), h], num_classes=2, feature_dim=2)
        assert a != graphdata.GraphDataset([make(), make(features=flipped)], 2, 2)


class TestPickle:
    @staticmethod
    def assert_same_graphs(got, want):
        assert (got.num_classes, got.feature_dim, got.name) == (
            want.num_classes,
            want.feature_dim,
            want.name,
        )
        assert len(got) == len(want)
        for g, h in zip(got.graphs, want.graphs):
            assert (g.n, g.edges, g.label) == (h.n, h.edges, h.label)
            assert all(type(i) is int for edge in g.edges for i in edge)
            assert np.array_equal(g.features, h.features)

    def test_round_trip_returns_equal_graphs(self, tu_dir):
        for ds in (
            graphdata.load_tu_dataset(tu_dir),
            graphdata.synth_generate(SynthSpec(n_graphs=30, nodes=(3, 9)), seed=4),
        ):
            ds.batch  # a cached batch is left out and rebuilt
            back = pickle.loads(pickle.dumps(ds))
            self.assert_same_graphs(back, ds)
            assert "batch" not in vars(back)
            assert np.array_equal(back.batch.features, ds.batch.features)

    def test_empty_dataset_round_trips(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=4), seed=0).subset([])
        back = pickle.loads(pickle.dumps(ds))
        self.assert_same_graphs(back, ds)
        assert back.graphs == []

    def test_edge_ends_take_the_narrowest_dtype(self):
        # Local node ids below 256 travel as one byte each; a graph of 300
        # nodes needs two.
        small = graphdata.synth_generate(SynthSpec(n_graphs=4), seed=0)
        assert small.__getstate__()["graphs"]["ends"].dtype == np.uint8
        big = graphdata.GraphDataset(
            [graphdata.Graph(300, ((0, 299),), np.zeros((300, 1)), 0)], 1, 1
        )
        ends = big.__getstate__()["graphs"]["ends"]
        assert ends.dtype == np.uint16 and ends.tolist() == [[0, 299]]
        self.assert_same_graphs(pickle.loads(pickle.dumps(big)), big)


class TestTuLoader:
    def test_fixture_parses_exactly(self, tu_dir):
        ds = graphdata.load_tu_dataset(tu_dir)
        assert len(ds) == 2
        assert ds.num_classes == 2
        assert [g.n for g in ds.graphs] == [3, 2]
        assert [len(g.edges) for g in ds.graphs] == [3, 1]
        assert sorted(ds.labels().tolist()) == [0, 1]
        assert ds.feature_dim == 3  # one-hot of node labels {0, 1, 2}
        assert np.array_equal(ds.graphs[0].features.sum(axis=0), [2.0, 1.0, 0.0])

    def test_edge_lines_are_deduplicated(self, tu_dir):
        # Both directions of an undirected edge are listed; each counts once.
        ds = graphdata.load_tu_dataset(tu_dir)
        edge_lines = (tu_dir / "FIXTURE_A.txt").read_text().strip().splitlines()
        assert sum(len(g.edges) for g in ds.graphs) == len(edge_lines) / 2

    def test_node_counts_match_indicator(self, tu_dir):
        ds = graphdata.load_tu_dataset(tu_dir)
        lines = (tu_dir / "FIXTURE_graph_indicator.txt").read_text().strip().splitlines()
        assert sum(g.n for g in ds.graphs) == len(lines)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingFile):
            graphdata.load_tu_dataset(tmp_path / "nope")

    def test_missing_required_file(self, tu_dir):
        (tu_dir / "FIXTURE_graph_labels.txt").unlink()
        with pytest.raises(MissingFile):
            graphdata.load_tu_dataset(tu_dir)

    def test_parse_error_carries_line_number(self, tu_dir):
        (tu_dir / "FIXTURE_A.txt").write_text("1, 2\nbogus line\n")
        with pytest.raises(ParseError, match="FIXTURE_A.txt:2"):
            graphdata.load_tu_dataset(tu_dir)

    @pytest.mark.parametrize(
        "text, error",
        [
            pytest.param(b"1, 2\n\n\n2, x\n", ParseError, id="blank-lines"),
            pytest.param(b"1, 2\r\n\r\n  \r\n2, x\r\n", ParseError, id="crlf-lines"),
            pytest.param(b"\n1, 2\n \t\n1, 9\n", IndexOutOfRange, id="out-of-range"),
            pytest.param(b"1, 2\n\n\n1, 4\n", ParseError, id="cross-graph"),
        ],
    )
    def test_errors_name_physical_lines(self, tu_dir, text, error):
        # Blank lines count: the number is the line an editor shows.
        (tu_dir / "FIXTURE_A.txt").write_bytes(text)
        with pytest.raises(error, match="FIXTURE_A.txt:4:") as excinfo:
            graphdata.load_tu_dataset(tu_dir)
        assert excinfo.type is error

    @pytest.mark.parametrize(
        "suffix, text, error, line",
        [pytest.param(*case[1:], id=case[0]) for case in TU_REFUSALS],
    )
    def test_malformed_files_are_refused(self, tu_dir, suffix, text, error, line):
        path = tu_dir / f"FIXTURE_{suffix}.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        named = f"FIXTURE_{suffix}.txt:{line}:" if line else f"FIXTURE_{suffix}.txt: "
        with pytest.raises(error, match=named) as excinfo:
            graphdata.load_tu_dataset(tu_dir)
        assert excinfo.type is error

    def test_ids_must_fit_int64(self, tu_dir):
        # A refused token, not an out-of-range node: ids are parsed as int64.
        (tu_dir / "FIXTURE_A.txt").write_text("1, 2\n1, 99999999999999999999\n")
        with pytest.raises(ParseError, match="FIXTURE_A.txt:2:"):
            graphdata.load_tu_dataset(tu_dir)

    @pytest.mark.parametrize("features", ["attributes", "node_labels", "none"])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_line_by_line_reference(self, tmp_path, seed, features):
        root = tmp_path / "rand"
        write_random_tu(root, seed, features)
        got = graphdata.load_tu_dataset(root)
        want = reference_load_tu(root, "RAND")
        assert (got.name, got.num_classes, got.feature_dim) == (
            want.name,
            want.num_classes,
            want.feature_dim,
        )
        assert len(got) == len(want)
        for g, w in zip(got.graphs, want.graphs):
            assert (g.n, g.edges, g.label) == (w.n, w.edges, w.label)
            assert g.features.tobytes() == w.features.tobytes()
            assert g.features.shape == w.features.shape
            # The loader skips Graph's own checks; the constructor accepts
            # every graph it returns and leaves it as it is.
            again = graphdata.Graph(g.n, g.edges, g.features, g.label)
            assert (again.n, again.edges, again.label) == (g.n, g.edges, g.label)
            assert again.features.dtype == np.float64
            assert again.features.tobytes() == g.features.tobytes()

    def test_peak_memory_is_a_small_multiple_of_the_result(self, tmp_path):
        # About 1.6 times what the loader returns.  Holding each table as a
        # list of its lines, and every intermediate of the edge and feature
        # passes while the graphs are built, read 2.9 times.
        root = tmp_path / "rings"
        write_ring_tu(root, 2000, seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = graphdata.load_tu_dataset(root)
            kept, peak = (size - base for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(ds) == 2000 and ds.feature_dim == 4
        assert all(len(g.edges) == g.n for g in ds.graphs)
        assert peak < 2.5 * kept, f"peak {peak / kept:.2f} times the {kept} bytes kept"

    def test_dangling_edge_endpoint(self, tu_dir):
        (tu_dir / "FIXTURE_A.txt").write_text("1, 99\n")
        with pytest.raises(IndexOutOfRange):
            graphdata.load_tu_dataset(tu_dir)

    def test_indicator_beyond_labels(self, tu_dir):
        (tu_dir / "FIXTURE_graph_indicator.txt").write_text("1\n1\n1\n2\n3\n")
        with pytest.raises(ParseError):
            graphdata.load_tu_dataset(tu_dir)

    def test_empty_graph_rejected(self, tu_dir):
        # Three labels but nodes only cover graphs 1 and 2.
        (tu_dir / "FIXTURE_graph_labels.txt").write_text("1\n2\n1\n")
        with pytest.raises(ParseError):
            graphdata.load_tu_dataset(tu_dir)

    def test_edgeless_dataset(self, tmp_path):
        root = tmp_path / "edgeless"
        root.mkdir()
        (root / "DS_A.txt").write_text("")
        (root / "DS_graph_indicator.txt").write_text("1\n")
        (root / "DS_graph_labels.txt").write_text("5\n")
        ds = graphdata.load_tu_dataset(root)
        assert len(ds) == 1
        assert ds.graphs[0].n == 1
        assert ds.graphs[0].edges == ()
        assert ds.graphs[0].label == 0  # labels remap to a dense 0-based range

    def test_node_label_gaps_do_not_widen_features(self, tu_dir):
        # One column per distinct label, not max(label) + 1 columns.
        (tu_dir / "FIXTURE_node_labels.txt").write_text("0\n7\n7\n0\n7\n")
        ds = graphdata.load_tu_dataset(tu_dir)
        assert ds.feature_dim == 2
        assert ds.graphs[0].features.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        assert ds.graphs[1].features.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_attributes_take_precedence(self, tu_dir):
        rows = "\n".join("0.5, 1.5" for _ in range(5))
        (tu_dir / "FIXTURE_node_attributes.txt").write_text(rows + "\n")
        ds = graphdata.load_tu_dataset(tu_dir)
        assert ds.feature_dim == 2
        assert np.allclose(ds.graphs[0].features, [[0.5, 1.5]] * 3)


def cache_path(root: Path) -> Path:
    return next(root.glob(f"*{graphdata.TU_CACHE_SUFFIX}"))


def read_records(path: Path) -> list:
    """The cache's records: version, key, class count, then the flat arrays."""
    with open(path, "rb") as fh:
        return [np.load(fh) for _ in range(3 + len(graphdata._FLAT_KEYS))]


def write_records(path: Path, records) -> None:
    with open(path, "wb") as fh:
        for record in records:
            np.save(fh, record)


def bigger_than_the_file(path: Path, records) -> None:
    """The records, the last one declaring far more rows than it holds."""
    write_records(path, records[:-1])
    last = records[-1]
    with open(path, "ab") as fh:
        header = np.lib.format.header_data_from_array_1_0(last)
        header["shape"] = (10**12, last.shape[1])
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(last.tobytes())


def edited(index: int, change):
    """A breakage that rewrites record ``index`` as ``change`` makes it."""

    def breakage(path, records):
        records[index] = change(records[index].copy())
        write_records(path, records)

    return breakage


def set_item(where, value):
    def change(a):
        a[where] = value
        return a

    return change


# Cache breakages, each applied to the fixture's valid cache: the fixture
# holds a triangle (edges (0, 1), (0, 2), (1, 2)) and an edge, labels 0 and 1.
CACHE_REFUSALS = {
    "truncated": lambda path, records: path.write_bytes(path.read_bytes()[:-9]),
    "trailing-bytes": lambda path, records: path.write_bytes(path.read_bytes() + b"\0"),
    "empty": lambda path, records: path.write_bytes(b""),
    "not-npy": lambda path, records: path.write_bytes(b"1, 2\n" * 40),
    "wrong-version": edited(0, lambda a: a + 1),
    "wrong-key": edited(1, set_item(0, 0)),
    "declared-larger-than-file": bigger_than_the_file,
    "signed-counts": edited(3, lambda a: a.astype(np.int64)),
    "float-edge-counts": edited(5, lambda a: a.astype(np.float64)),
    "object-record": edited(4, lambda a: a.astype(object)),
    "no-graphs": lambda path, records: write_records(
        path, records[:3] + [a[:0] for a in records[3:]]
    ),
    "zero-node-graph": edited(3, set_item(1, 0)),
    "missing-feature-row": edited(7, lambda a: a[:-1]),
    "feature-columns": edited(7, lambda a: np.asfortranarray(a)),
    "edge-end-at-n": edited(6, set_item((2, 1), 3)),
    "edge-end-of-next-graph": edited(6, set_item((3, 1), 2)),
    "edge-lo-above-hi": edited(6, set_item(0, [1, 0])),
    "repeated-edge": edited(6, set_item(1, [0, 1])),
    "unsorted-edges": edited(6, lambda a: a[[1, 0, 2, 3]]),
    "edge-count-sum": edited(5, set_item(1, 0)),
    "nan-feature": edited(7, set_item((1, 0), np.nan)),
    "label-at-class-count": edited(4, set_item(0, 2)),
    "unused-class": edited(4, set_item(1, 0)),
}


class TestTuCache:
    @staticmethod
    def assert_same_dataset(got, want):
        assert got == want
        assert (got.name, got.feature_dim) == (want.name, want.feature_dim)
        for g in got.graphs:
            assert type(g.n) is int and type(g.label) is int
            assert all(type(i) is int for edge in g.edges for i in edge)
            assert g.features.dtype == np.float64
        got_flat, want_flat = got.__getstate__()["graphs"], want.__getstate__()["graphs"]
        for k in graphdata._FLAT_KEYS:
            assert got_flat[k].dtype == want_flat[k].dtype
            assert np.array_equal(got_flat[k], want_flat[k])

    @pytest.mark.parametrize("kind", ["fixture", "rings"])
    def test_warm_load_equals_cold_load_without_parsing(self, tmp_path, monkeypatch, kind):
        if kind == "fixture":
            root = graphdata.write_tu_fixture(tmp_path / "fixture")
        else:
            root = tmp_path / "rings"
            write_ring_tu(root, 40, seed=3)
        cold = graphdata.load_tu_dataset(root)
        want = reference_load_tu(root, cold.name)
        self.assert_same_dataset(cold, want)

        def no_parse(*args, **kwargs):
            raise AssertionError("a warm load parsed a TU file")

        monkeypatch.setattr(np, "loadtxt", no_parse)
        self.assert_same_dataset(graphdata.load_tu_dataset(root), want)

    def test_edited_files_are_read_again(self, tmp_path):
        root = tmp_path / "rings"
        write_ring_tu(root, 5, seed=1)
        first = graphdata.load_tu_dataset(root)
        attributes = root / "RING_node_attributes.txt"
        lines = attributes.read_text().splitlines()
        lines[0] = "0.25,0.5,0.75,1.0"
        attributes.write_text("\n".join(lines) + "\n")
        changed = graphdata.load_tu_dataset(root)
        assert changed.graphs[0].features[0].tolist() == [0.25, 0.5, 0.75, 1.0]
        assert changed.graphs[1:] == first.graphs[1:]
        with open(root / "RING_A.txt", "a") as fh:
            fh.write("1, 3\n")
        appended = graphdata.load_tu_dataset(root)
        assert (0, 2) in appended.graphs[0].edges
        assert len(appended.graphs[0].edges) == len(first.graphs[0].edges) + 1
        assert appended == reference_load_tu(root, "RING")

    def test_a_feature_file_added_after_caching_is_read(self, tu_dir):
        assert graphdata.load_tu_dataset(tu_dir).feature_dim == 3
        (tu_dir / "FIXTURE_node_attributes.txt").write_text("0.5, 1.5\n" * 5)
        assert graphdata.load_tu_dataset(tu_dir).feature_dim == 2
        (tu_dir / "FIXTURE_node_attributes.txt").unlink()
        (tu_dir / "FIXTURE_node_labels.txt").unlink()
        assert graphdata.load_tu_dataset(tu_dir).feature_dim == 1

    @pytest.mark.parametrize(
        "suffix, text, error, line",
        [pytest.param(*case[1:], id=case[0]) for case in TU_REFUSALS],
    )
    def test_malformed_edit_after_caching_is_refused(self, tu_dir, suffix, text, error, line):
        graphdata.load_tu_dataset(tu_dir)
        path = tu_dir / f"FIXTURE_{suffix}.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        named = f"FIXTURE_{suffix}.txt:{line}:" if line else f"FIXTURE_{suffix}.txt: "
        with pytest.raises(error, match=named) as excinfo:
            graphdata.load_tu_dataset(tu_dir)
        assert excinfo.type is error

    @pytest.mark.parametrize("breakage", CACHE_REFUSALS.values(), ids=CACHE_REFUSALS.keys())
    def test_broken_cache_is_refused_and_rewritten(self, tu_dir, caplog, breakage):
        cold = graphdata.load_tu_dataset(tu_dir)
        path = cache_path(tu_dir)
        good = path.read_bytes()
        breakage(path, read_records(path))
        assert path.read_bytes() != good
        caplog.set_level("DEBUG", logger="cefgl.graphdata")
        self.assert_same_dataset(graphdata.load_tu_dataset(tu_dir), cold)
        assert "TU cache refused" in caplog.text and ", written" in caplog.text
        assert path.read_bytes() == good

    def test_a_directory_at_the_cache_path_does_not_stop_the_load(self, tu_dir, caplog):
        cold = graphdata.load_tu_dataset(tu_dir)
        path = cache_path(tu_dir)
        path.unlink()
        path.mkdir()
        caplog.set_level("DEBUG", logger="cefgl.graphdata")
        for _ in range(2):
            self.assert_same_dataset(graphdata.load_tu_dataset(tu_dir), cold)
        assert caplog.text.count("not written") == 2
        assert path.is_dir() and sorted(p.name for p in tu_dir.iterdir() if p.name[0] == ".") == []

    def test_log_names_hit_and_miss(self, tu_dir, caplog):
        caplog.set_level("DEBUG", logger="cefgl.graphdata")
        graphdata.load_tu_dataset(tu_dir)
        graphdata.load_tu_dataset(tu_dir)
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split("TU cache ")[1] for line in lines] == ["miss, written", "hit"]
        assert all(str(cache_path(tu_dir)) in line for line in lines)

    def test_peak_memory_of_a_warm_load_is_a_small_multiple_of_the_result(self, tmp_path):
        root = tmp_path / "rings"
        write_ring_tu(root, 2000, seed=0)
        graphdata.load_tu_dataset(root)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = graphdata.load_tu_dataset(root)
            kept, peak = (size - base for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(ds) == 2000 and ds.feature_dim == 4
        assert peak < 2.5 * kept, f"peak {peak / kept:.2f} times the {kept} bytes kept"


class TestSynth:
    def test_determinism(self):
        spec = SynthSpec(n_graphs=30)
        a = graphdata.synth_generate(spec, seed=42)
        b = graphdata.synth_generate(spec, seed=42)
        assert len(a) == len(b)
        for ga, gb in zip(a.graphs, b.graphs):
            assert ga.edges == gb.edges
            assert np.array_equal(ga.features, gb.features)
            assert ga.label == gb.label

    def test_label_balance(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=100), seed=0)
        labels = ds.labels()
        assert (labels == 0).sum() == 50
        assert (labels == 1).sum() == 50

    def test_odd_count_balances_within_one(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=31, motifs=("star", "ring")), seed=0)
        counts = np.bincount(ds.labels())
        assert counts.max() - counts.min() <= 1

    def test_triangle_class_is_triangle_rich(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=40, noise=0.1), seed=3)
        per_node = {0: [], 1: []}
        for g in ds.graphs:
            per_node[g.label].append(triangle_count(g) / g.n)
        assert np.mean(per_node[0]) > np.mean(per_node[1])

    def test_overflowing_noise_is_refused(self):
        # The product overflows to inf without a RuntimeWarning (the suite
        # turns those into errors), and Graph's own check refuses it.
        with pytest.raises(NonFiniteInput, match="noise 1e\\+308"):
            graphdata.synth_generate(SynthSpec(noise=1e308), 0)

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            graphdata.synth_generate(SynthSpec(n_graphs=1, motifs=("triangles", "star")), 0)
        with pytest.raises(BadSpec):
            graphdata.synth_generate(SynthSpec(motifs=("star", "star")), 0)
        with pytest.raises(BadSpec):
            graphdata.synth_generate(SynthSpec(motifs=("star", "blob")), 0)
        with pytest.raises(BadSpec):
            graphdata.synth_generate(SynthSpec(nodes=(2, 5)), 0)


class TestSplit:
    def test_80_10_10_on_ten(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=10), seed=1)
        train, val, test = graphdata.split_dataset(ds, (0.8, 0.1, 0.1), seed=5)
        assert (len(train), len(val), len(test)) == (8, 1, 1)

    def test_all_train(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=10), seed=1)
        train, val, test = graphdata.split_dataset(ds, (1.0, 0.0, 0.0), seed=5)
        assert (len(train), len(val), len(test)) == (10, 0, 0)

    def test_floor_remainder_goes_to_train(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=7), seed=1)
        train, val, test = graphdata.split_dataset(ds, (0.8, 0.1, 0.1), seed=5)
        assert (len(train), len(val), len(test)) == (7, 0, 0)

    def test_bad_ratios(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=6), seed=1)
        with pytest.raises(BadRatios):
            graphdata.split_dataset(ds, (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(BadRatios):
            graphdata.split_dataset(ds, (1.2, -0.1, -0.1), seed=0)

    def test_deterministic_shuffle(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=20), seed=1)
        a = graphdata.split_dataset(ds, (0.8, 0.1, 0.1), seed=9)
        b = graphdata.split_dataset(ds, (0.8, 0.1, 0.1), seed=9)
        for da, db in zip(a, b):
            assert [g.label for g in da.graphs] == [g.label for g in db.graphs]


class TestPartition:
    def test_cross_dataset_identity(self):
        pool = [graphdata.synth_generate(SynthSpec(n_graphs=4 + i), seed=i) for i in range(7)]
        part = graphdata.partition_clients(pool, 7, graphdata.MODE_CROSS_DATASET)
        for cid in range(7):
            assert part.assignments[cid] == tuple(range(len(pool[cid])))

    def test_iid_single_client_owns_everything(self):
        pool = [graphdata.synth_generate(SynthSpec(n_graphs=12), seed=0)]
        part = graphdata.partition_clients(pool, 1, graphdata.MODE_IID, seed=0)
        assert part.assignments[0] == tuple(range(12))

    @pytest.mark.parametrize("mode", [graphdata.MODE_IID, graphdata.MODE_LABEL_SKEW])
    def test_partitions_are_exact_covers(self, mode):
        pool = [graphdata.synth_generate(SynthSpec(n_graphs=57), seed=0)]
        for seed in range(100):
            part = graphdata.partition_clients(pool, 5, mode, skew=0.3, seed=seed)
            combined = [i for idxs in part.assignments.values() for i in idxs]
            assert len(combined) == 57
            assert sorted(combined) == list(range(57))

    def test_huge_skew_approximates_iid(self):
        # Chi-square of per-client class counts against the uniform share;
        # 12.59 is the 95th percentile for (k-1)(C-1) = 6 degrees of freedom.
        pool = [graphdata.synth_generate(SynthSpec(n_graphs=2800), seed=0)]
        part = graphdata.partition_clients(
            pool, 7, graphdata.MODE_LABEL_SKEW, skew=1e6, seed=4
        )
        labels = pool[0].labels()
        stat = 0.0
        for idxs in part.assignments.values():
            counts = np.bincount(labels[list(idxs)], minlength=2)
            expected = np.full(2, len(idxs) / 2.0)
            stat += float(((counts - expected) ** 2 / expected).sum())
        assert stat <= 12.59

    def test_partition_determinism(self):
        pool = [graphdata.synth_generate(SynthSpec(n_graphs=40), seed=0)]
        a = graphdata.partition_clients(pool, 4, graphdata.MODE_LABEL_SKEW, 0.3, seed=8)
        b = graphdata.partition_clients(pool, 4, graphdata.MODE_LABEL_SKEW, 0.3, seed=8)
        assert a.assignments == b.assignments

    def test_bad_modes(self):
        pool = [graphdata.synth_generate(SynthSpec(n_graphs=10), seed=0)]
        with pytest.raises(BadMode):
            graphdata.partition_clients(pool, 2, "bogus")
        with pytest.raises(BadMode):
            graphdata.partition_clients(pool, 2, graphdata.MODE_CROSS_DATASET)
        with pytest.raises(BadMode):
            graphdata.partition_clients(pool * 2, 2, graphdata.MODE_IID)


class TestPadToCommon:
    def test_pads_features_and_classes(self):
        a = graphdata.synth_generate(SynthSpec(n_graphs=6, feature_dim=2), seed=0)
        b = graphdata.synth_generate(
            SynthSpec(n_graphs=6, feature_dim=5, motifs=("star", "ring", "clique")), seed=1
        )
        out = graphdata.pad_to_common([a, b])
        assert all(ds.feature_dim == 5 for ds in out)
        assert all(ds.num_classes == 3 for ds in out)
        assert np.array_equal(out[0].graphs[0].features[:, 2:], np.zeros((a.graphs[0].n, 3)))
