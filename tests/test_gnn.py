import math

import numpy as np
import pytest

from cefgl import gnn, graphdata
from cefgl.errors import ShapeMismatch
from cefgl.gnn import ArchConfig
from cefgl.graphdata import Graph, GraphDataset, SynthSpec
from helpers import compact


def random_graph(rng, n_nodes, feature_dim, label=0):
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    keep = [p for p in pairs if rng.random() < 0.4]
    return Graph(
        n=n_nodes,
        edges=tuple(keep),
        features=rng.normal(size=(n_nodes, feature_dim)),
        label=label,
    )


def logits_of(p, g):
    """Class logits for one graph (length C), from a one-graph batch."""
    logits, _ = gnn._forward_trace(p, graphdata.GraphBatch([g]))
    return logits[0]


def numeric_grads(p, batch, eps=1e-5):
    """Central finite differences over every parameter entry."""
    out = {}
    for name, mat in p.items():
        g = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            saved = mat[idx]
            mat[idx] = saved + eps
            up, _ = gnn.loss_and_grad(p, batch)
            mat[idx] = saved - eps
            down, _ = gnn.loss_and_grad(p, batch)
            mat[idx] = saved
            g[idx] = (up - down) / (2 * eps)
        out[name] = g
    return out


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = ArchConfig(feature_dim=3, hidden=4, classes=2)
        a = gnn.init_params(cfg, seed=11)
        b = gnn.init_params(cfg, seed=11)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_biases_are_zero(self):
        p = gnn.init_params(ArchConfig(feature_dim=3, hidden=4, classes=2), seed=0)
        for name in ("mlp_b", "gnn1_b", "gnn2_b", "head_b"):
            assert not p[name].any()

    def test_different_seeds_differ(self):
        cfg = ArchConfig(feature_dim=3, hidden=4, classes=2)
        a = gnn.init_params(cfg, seed=0)
        b = gnn.init_params(cfg, seed=1)
        assert not np.array_equal(a["mlp_w"], b["mlp_w"])

    def test_weight_bounds(self):
        cfg = ArchConfig(feature_dim=9, hidden=4, classes=2)
        p = gnn.init_params(cfg, seed=5)
        assert np.max(np.abs(p["mlp_w"])) <= 1.0 / 3.0


class TestCombine:
    def test_additive_identity(self):
        p = gnn.init_params(ArchConfig(feature_dim=2, hidden=3, classes=2), seed=0)
        z = gnn.zeros_like_params(p)
        out = gnn.combine(p, compact(z))
        for k in p:
            assert np.array_equal(out[k], p[k])
        out = gnn.combine(z, compact(p))
        for k in p:
            assert np.array_equal(out[k], p[k])

    def test_scalar_case(self):
        assert gnn.combine({"x": np.array([[2.0]])}, compact({"x": np.array([[3.0]])}))["x"] == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gnn.combine({"x": np.ones((1, 2))}, compact({"x": np.ones((3, 1))}))
        with pytest.raises(ShapeMismatch):
            gnn.combine({"x": np.ones((1, 2))}, gnn.SparseParams(np.array([-1]), np.ones(1)))

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(19)
        a, b, c = ({"m": rng.normal(size=(3, 3))} for _ in range(3))
        ab, ba = gnn.combine(a, compact(b)), gnn.combine(b, compact(a))
        assert np.array_equal(ab["m"], ba["m"])  # IEEE addition commutes exactly
        left = gnn.combine(gnn.combine(a, compact(b)), compact(c))
        right = gnn.combine(a, compact(gnn.combine(b, compact(c))))
        assert np.allclose(left["m"], right["m"], atol=1e-12)


class TestForward:
    def test_zero_everything_returns_head_bias(self):
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=2)
        p = gnn.zeros_like_params(gnn.init_params(cfg, seed=0))
        p["head_b"] = np.array([[0.25, -0.5]])
        g = Graph(n=1, edges=(), features=np.zeros((1, 2)), label=0)
        assert np.array_equal(logits_of(p, g), [0.25, -0.5])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        cfg = ArchConfig(feature_dim=3, hidden=5, classes=3)
        p = gnn.init_params(cfg, seed=2)
        for _ in range(20):
            g = random_graph(rng, 6, 3)
            base = logits_of(p, g)
            perm = rng.permutation(6)
            inv = np.argsort(perm)
            permuted = Graph(
                n=6,
                edges=tuple((int(inv[i]), int(inv[j])) for i, j in g.edges),
                features=g.features[perm],
                label=g.label,
            )
            assert np.max(np.abs(logits_of(p, permuted) - base)) <= 1e-10

    def test_edges_change_logits(self):
        cfg = ArchConfig(feature_dim=2, hidden=4, classes=2)
        p = gnn.init_params(cfg, seed=3)
        feats = np.array([[1.0, -0.5], [0.3, 0.8]])
        disconnected = Graph(n=2, edges=(), features=feats, label=0)
        connected = Graph(n=2, edges=((0, 1),), features=feats, label=0)
        assert not np.allclose(logits_of(p, disconnected), logits_of(p, connected))

    def test_feature_width_mismatch(self):
        cfg = ArchConfig(feature_dim=3, hidden=4, classes=2)
        p = gnn.init_params(cfg, seed=0)
        g = Graph(n=2, edges=(), features=np.zeros((2, 2)), label=0)
        with pytest.raises(ShapeMismatch):
            logits_of(p, g)


class TestLossAndGrad:
    def test_uniform_logits_give_ln2(self):
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=2)
        p = gnn.zeros_like_params(gnn.init_params(cfg, seed=0))
        g = Graph(n=2, edges=((0, 1),), features=np.ones((2, 2)), label=1)
        loss, _ = gnn.loss_and_grad(p, [g])
        assert abs(loss - math.log(2.0)) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        cfg = ArchConfig(feature_dim=3, hidden=4, classes=2)
        for trial in range(5):
            # Fully random parameters: zero biases would sit relu inputs of
            # isolated nodes exactly on the kink.
            p = gnn.init_params(cfg, seed=trial)
            p = {k: v + 0.1 * rng.normal(size=v.shape) for k, v in p.items()}
            batch = [random_graph(rng, 5, 3, label=int(rng.integers(0, 2))) for _ in range(2)]
            _, analytic = gnn.loss_and_grad(p, batch)
            numeric = numeric_grads(p, batch)
            for name in p:
                denom = np.maximum(np.abs(numeric[name]), 1e-8)
                rel = np.abs(analytic[name] - numeric[name]) / denom
                assert rel.max() <= 1e-4, name

    def test_duplicated_batch_is_invariant(self):
        rng = np.random.default_rng(15)
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=2)
        p = gnn.init_params(cfg, seed=7)
        batch = [random_graph(rng, 4, 2, label=i % 2) for i in range(3)]
        loss_a, grads_a = gnn.loss_and_grad(p, batch)
        loss_b, grads_b = gnn.loss_and_grad(p, batch + batch)
        assert abs(loss_a - loss_b) <= 1e-12
        for k in grads_a:
            assert np.max(np.abs(grads_a[k] - grads_b[k])) <= 1e-12

    def test_loss_non_negative_and_probs_normalized(self):
        rng = np.random.default_rng(16)
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=4)
        for trial in range(20):
            p = gnn.init_params(cfg, seed=trial)
            g = random_graph(rng, 4, 2, label=int(rng.integers(0, 4)))
            loss, _ = gnn.loss_and_grad(p, [g])
            assert loss >= 0.0
            probs = np.exp(gnn._log_softmax(logits_of(p, g)))
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_sum_channel_gradients_match_combined(self):
        rng = np.random.default_rng(17)
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=2)
        base = gnn.init_params(cfg, seed=1)
        s = {k: 0.1 * rng.normal(size=v.shape) for k, v in base.items()}
        batch = [random_graph(rng, 4, 2, label=1)]
        # The private channel is trained with the gradient taken at the sum
        # of both channels; check it against finite differences in s alone.
        _, grads = gnn.loss_and_grad(gnn.combine(base, compact(s)), batch)
        eps = 1e-6
        for k, mat in s.items():
            for idx in np.ndindex(mat.shape):
                saved = mat[idx]
                mat[idx] = saved + eps
                up, _ = gnn.loss_and_grad(gnn.combine(base, compact(s)), batch)
                mat[idx] = saved - eps
                down, _ = gnn.loss_and_grad(gnn.combine(base, compact(s)), batch)
                mat[idx] = saved
                assert abs((up - down) / (2 * eps) - grads[k][idx]) <= 1e-6

    def test_empty_batch_rejected(self):
        p = gnn.init_params(ArchConfig(feature_dim=2, hidden=3, classes=2), seed=0)
        with pytest.raises(ValueError):
            gnn.loss_and_grad(p, [])


def mixed_graphs(rng, feature_dim=3):
    """Node counts 1-9 with a 1-node edgeless graph first and equal sizes at
    non-adjacent positions, so size groups interleave in input order."""
    sizes = [1, 5, 3, 9, 5, 2, 7, 3, 4, 6, 8, 5, 1]
    graphs = [random_graph(rng, n, feature_dim, label=i % 3) for i, n in enumerate(sizes)]
    graphs[0] = Graph(n=1, edges=(), features=rng.normal(size=(1, feature_dim)), label=2)
    return graphs


class TestBatch:
    def test_batched_grads_are_mean_of_single_graph_grads(self):
        rng = np.random.default_rng(21)
        graphs = mixed_graphs(rng)
        cfg = ArchConfig(feature_dim=3, hidden=5, classes=3)
        p = gnn.init_params(cfg, seed=4)
        p = {k: v + 0.1 * rng.normal(size=v.shape) for k, v in p.items()}
        loss, grads = gnn.loss_and_grad(p, graphdata.GraphBatch(graphs))
        singles = [gnn.loss_and_grad(p, [g]) for g in graphs]
        assert abs(loss - np.mean([single[0] for single in singles])) <= 1e-12
        assert list(grads) == list(p)
        for k in p:
            mean = np.mean([g[k] for _, g in singles], axis=0)
            assert np.max(np.abs(grads[k] - mean)) <= 1e-12, k

    def test_evaluate_matches_per_graph_loop(self):
        rng = np.random.default_rng(22)
        graphs = mixed_graphs(rng)
        cfg = ArchConfig(feature_dim=3, hidden=4, classes=3)
        p = gnn.init_params(cfg, seed=6)
        acc, loss = gnn.evaluate(p, GraphDataset(graphs=graphs, num_classes=3, feature_dim=3))
        hits, total = 0, 0.0
        for g in graphs:
            logits = logits_of(p, g)
            total -= gnn._log_softmax(logits)[g.label]
            hits += int(np.argmax(logits)) == g.label
        assert acc == hits / len(graphs)
        assert abs(loss - total / len(graphs)) <= 1e-12

    def test_adjacency_is_not_padded(self):
        rng = np.random.default_rng(23)
        graphs = mixed_graphs(rng)
        batch = graphdata.GraphBatch(graphs)
        # Batch order is a stable node-count sort: equal sizes keep their
        # input order.
        order = sorted(range(len(graphs)), key=lambda i: graphs[i].n)
        assert len(batch) == len(graphs)
        assert np.array_equal(batch.sizes, [graphs[i].n for i in order])
        assert np.array_equal(batch.labels, [graphs[i].label for i in order])
        assert sum(grp.adj.size for grp in batch.groups) == sum(g.n**2 for g in graphs)
        assert batch.features.shape == (sum(g.n for g in graphs), 3)
        assert [grp.n for grp in batch.groups] == sorted({g.n for g in graphs})
        first = 0  # batch position of the group's first graph
        for grp in batch.groups:
            k = len(grp.adj)
            assert np.all(batch.sizes[first : first + k] == grp.n)
            assert grp.rows == slice(batch.starts[first], batch.starts[first] + k * grp.n)
            for slot in range(k):
                g = graphs[order[first + slot]]
                start = batch.starts[first + slot]
                assert np.array_equal(batch.features[start : start + g.n], g.features)
                expected = np.zeros((g.n, g.n))
                for i, j in g.edges:
                    expected[i, j] = expected[j, i] = 1.0
                assert np.array_equal(grp.adj[slot], expected)
            first += k
        assert first == len(graphs)


class TestEvaluate:
    def test_argmax_ties_break_low(self):
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=2)
        p = gnn.zeros_like_params(gnn.init_params(cfg, seed=0))
        graphs = [
            Graph(n=1, edges=(), features=np.ones((1, 2)), label=i % 2) for i in range(6)
        ]
        ds = GraphDataset(graphs=graphs, num_classes=2, feature_dim=2)
        acc, loss = gnn.evaluate(p, ds)
        assert acc == 0.5  # zero params predict class 0 everywhere
        assert abs(loss - math.log(2.0)) <= 1e-12

    def test_memorized_set_scores_one(self):
        # Identity-like parameters forward one-hot class features straight
        # through relu layers into matching logits.
        cfg = ArchConfig(feature_dim=2, hidden=2, classes=2)
        p = gnn.zeros_like_params(gnn.init_params(cfg, seed=0))
        p["mlp_w"] = np.eye(2)
        p["gnn1_w"] = np.eye(2)
        p["gnn2_w"] = np.eye(2)
        p["head_w"] = np.eye(2)
        graphs = [
            Graph(n=1, edges=(), features=np.eye(2)[[label]], label=label)
            for label in (0, 1, 0, 1)
        ]
        ds = GraphDataset(graphs=graphs, num_classes=2, feature_dim=2)
        acc, _ = gnn.evaluate(p, ds)
        assert acc == 1.0

    def test_single_graph_accuracy_is_binary(self):
        rng = np.random.default_rng(18)
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=2)
        p = gnn.init_params(cfg, seed=3)
        ds = GraphDataset(
            graphs=[random_graph(rng, 3, 2, label=1)], num_classes=2, feature_dim=2
        )
        acc, _ = gnn.evaluate(p, ds)
        assert acc in (0.0, 1.0)

    def test_synth_dataset_evaluates(self):
        ds = graphdata.synth_generate(SynthSpec(n_graphs=12), seed=0)
        cfg = ArchConfig(feature_dim=ds.feature_dim, hidden=4, classes=ds.num_classes)
        p = gnn.init_params(cfg, seed=0)
        acc, loss = gnn.evaluate(p, ds)
        assert 0.0 <= acc <= 1.0 and np.isfinite(loss)
