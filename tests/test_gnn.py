import math

import numpy as np
import pytest

from cefgl import gnn, graphdata
from cefgl.errors import ShapeMismatch
from cefgl.gnn import ArchConfig
from cefgl.graphdata import Graph, GraphDataset, SynthSpec


def random_graph(rng, n_nodes, feature_dim, label=0):
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    keep = [p for p in pairs if rng.random() < 0.4]
    return Graph(
        n=n_nodes,
        edges=tuple(keep),
        features=rng.normal(size=(n_nodes, feature_dim)),
        label=label,
    )


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
        out = gnn.combine(p, z)
        for k in p:
            assert np.array_equal(out[k], p[k])
        out = gnn.combine(z, p)
        for k in p:
            assert np.array_equal(out[k], p[k])

    def test_scalar_case(self):
        assert gnn.combine({"x": np.array([[2.0]])}, {"x": np.array([[3.0]])})["x"] == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gnn.combine({"x": np.ones((1, 2))}, {"x": np.ones((2, 1))})
        with pytest.raises(ShapeMismatch):
            gnn.combine({"x": np.ones((1, 2))}, {"y": np.ones((1, 2))})

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(19)
        a, b, c = ({"m": rng.normal(size=(3, 3))} for _ in range(3))
        ab, ba = gnn.combine(a, b), gnn.combine(b, a)
        assert np.array_equal(ab["m"], ba["m"])  # IEEE addition commutes exactly
        left = gnn.combine(gnn.combine(a, b), c)
        right = gnn.combine(a, gnn.combine(b, c))
        assert np.allclose(left["m"], right["m"], atol=1e-12)


class TestForward:
    def test_zero_everything_returns_head_bias(self):
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=2)
        p = gnn.zeros_like_params(gnn.init_params(cfg, seed=0))
        p["head_b"] = np.array([[0.25, -0.5]])
        g = Graph(n=1, edges=(), features=np.zeros((1, 2)), label=0)
        assert np.array_equal(gnn.forward(p, g), [0.25, -0.5])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        cfg = ArchConfig(feature_dim=3, hidden=5, classes=3)
        p = gnn.init_params(cfg, seed=2)
        for _ in range(20):
            g = random_graph(rng, 6, 3)
            base = gnn.forward(p, g)
            perm = rng.permutation(6)
            inv = np.argsort(perm)
            permuted = Graph(
                n=6,
                edges=tuple((int(inv[i]), int(inv[j])) for i, j in g.edges),
                features=g.features[perm],
                label=g.label,
            )
            assert np.max(np.abs(gnn.forward(p, permuted) - base)) <= 1e-10

    def test_edges_change_logits(self):
        cfg = ArchConfig(feature_dim=2, hidden=4, classes=2)
        p = gnn.init_params(cfg, seed=3)
        feats = np.array([[1.0, -0.5], [0.3, 0.8]])
        disconnected = Graph(n=2, edges=(), features=feats, label=0)
        connected = Graph(n=2, edges=((0, 1),), features=feats, label=0)
        assert not np.allclose(gnn.forward(p, disconnected), gnn.forward(p, connected))

    def test_feature_width_mismatch(self):
        cfg = ArchConfig(feature_dim=3, hidden=4, classes=2)
        p = gnn.init_params(cfg, seed=0)
        g = Graph(n=2, edges=(), features=np.zeros((2, 2)), label=0)
        with pytest.raises(ShapeMismatch):
            gnn.forward(p, g)


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
            probs = np.exp(gnn._log_softmax(gnn.forward(p, g)))
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_sum_channel_gradients_match_combined(self):
        rng = np.random.default_rng(17)
        cfg = ArchConfig(feature_dim=2, hidden=3, classes=2)
        base = gnn.init_params(cfg, seed=1)
        s = {k: 0.1 * rng.normal(size=v.shape) for k, v in base.items()}
        batch = [random_graph(rng, 4, 2, label=1)]
        # The private channel is trained with the gradient taken at the sum
        # of both channels; check it against finite differences in s alone.
        _, grads = gnn.loss_and_grad(gnn.combine(base, s), batch)
        eps = 1e-6
        for k, mat in s.items():
            for idx in np.ndindex(mat.shape):
                saved = mat[idx]
                mat[idx] = saved + eps
                up, _ = gnn.loss_and_grad(gnn.combine(base, s), batch)
                mat[idx] = saved - eps
                down, _ = gnn.loss_and_grad(gnn.combine(base, s), batch)
                mat[idx] = saved
                assert abs((up - down) / (2 * eps) - grads[k][idx]) <= 1e-6

    def test_empty_batch_rejected(self):
        p = gnn.init_params(ArchConfig(feature_dim=2, hidden=3, classes=2), seed=0)
        with pytest.raises(ValueError):
            gnn.loss_and_grad(p, [])


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
