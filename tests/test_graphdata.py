from itertools import combinations

import numpy as np
import pytest

from cefgl import graphdata
from cefgl.errors import BadMode, BadRatios, BadSpec, IndexOutOfRange, MissingFile, ParseError
from cefgl.graphdata import SynthSpec


@pytest.fixture
def tu_dir(tmp_path):
    return graphdata.write_tu_fixture(tmp_path / "fixture")


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
