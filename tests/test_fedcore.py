import copy
import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest

from cefgl import compress, fedcore, gnn, graphdata, harness, linalg
from cefgl.errors import DivergenceDetected, MalformedPayload, ShapeMismatch
from cefgl.fedcore import ClientConfig, ClientState, ServerConfig, ServerState
from cefgl.gnn import ArchConfig
from cefgl.graphdata import SynthSpec
from helpers import batch_of, clone_params, compact, dense, plain_fedavg_reference
from test_compress import HEADER_BYTES, bodies_bytes, body_bits, schema_check, segment_streams


def make_clients(
    n_clients=2, n_graphs=20, seed=0, hidden=4, noise=0.4, algorithm="cefgl", **cfg_kwargs
):
    ds = graphdata.synth_generate(
        SynthSpec(n_graphs=n_graphs, feature_dim=3, noise=noise), seed=seed
    )
    part = graphdata.partition_clients([ds], n_clients, graphdata.MODE_IID, seed=seed)
    arch = ArchConfig(feature_dim=3, hidden=hidden, classes=ds.num_classes)
    theta0 = gnn.init_params(arch, seed=seed + 1)
    cfg, *_ = fedcore.preset(algorithm, ClientConfig(**cfg_kwargs), ServerConfig())
    clients = []
    for cid in range(n_clients):
        local = ds.subset(part.assignments[cid])
        train, _, test = graphdata.split_dataset(local, (0.8, 0.1, 0.1), seed=seed + cid)
        clients.append(
            ClientState(
                id=cid,
                w=clone_params(theta0),
                s=compact(gnn.zeros_like_params(theta0)),
                h=gnn.zeros_like_params(theta0),
                train=train,
                test=test,
                cfg=cfg,
                rng=np.random.default_rng([seed, cid]),
            )
        )
    return theta0, clients


def make_server(theta0, seed=0, algorithm="cefgl", **cfg_kwargs):
    _, cfg, uplink, downlink = fedcore.preset(
        algorithm, ClientConfig(), ServerConfig(**cfg_kwargs)
    )
    return ServerState(
        theta=clone_params(theta0),
        cfg=cfg,
        uplink_scheme=uplink,
        downlink_scheme=downlink,
        coin_rng=np.random.default_rng(seed + 10),
        sampling_rng=np.random.default_rng(seed + 11),
        dropout_rng=np.random.default_rng(seed + 12),
    )


def max_rel_frob(a, b):
    out = 0.0
    for k in a:
        denom = max(1.0, np.linalg.norm(b[k]))
        out = max(out, np.linalg.norm(a[k] - b[k]) / denom)
    return out


def step_payload(w, h, eta):
    """A dense uplink of the drift-corrected step ``w - eta * h``, what a
    client whose change from a zero anchor is ``w`` sends."""
    return compress.encode_payload({k: w[k] - eta * h[k] for k in w}, "dense")


class TestSparsifier:
    def test_threshold_postcondition(self):
        params = {"a": np.array([[0.5, -0.0005], [0.002, 0.0]])}
        out = dense(
            fedcore.apply_sparsifier(
                params, ClientConfig(sparsifier="threshold", cut_sparse=0.001)
            ),
            params,
        )
        nz = out["a"][out["a"] != 0]
        assert np.min(np.abs(nz)) >= 0.001
        assert out["a"][0, 1] == 0.0

    def test_topk_is_global_across_matrices(self):
        params = {"a": np.array([[5.0, 0.1]]), "b": np.array([[4.0, 0.2]])}
        half = ClientConfig(sparsifier="topk", beta=0.5)
        out = dense(fedcore.apply_sparsifier(params, half), params)
        assert out["a"][0, 0] == 5.0 and out["b"][0, 0] == 4.0
        assert out["a"][0, 1] == 0.0 and out["b"][0, 1] == 0.0
        # A tie across matrices goes to the smaller flat index, the matrices
        # concatenated in dict order.
        a, b = np.array([[1.0, -3.0]]), np.array([[3.0, 1.0]])
        one = ClientConfig(sparsifier="topk", beta=0.25)
        out = dense(fedcore.apply_sparsifier({"a": a, "b": b}, one), {"a": a, "b": b})
        assert out["a"].tolist() == [[0.0, -3.0]] and not out["b"].any()
        out = dense(fedcore.apply_sparsifier({"b": b, "a": a}, one), {"b": b, "a": a})
        assert out["b"].tolist() == [[3.0, 0.0]] and not out["a"].any()

    def test_topk_nnz_bound(self):
        rng = np.random.default_rng(0)
        params = {"a": rng.normal(size=(5, 5)), "b": rng.normal(size=(3, 7))}
        total = 46
        for beta in (0.0, 0.1, 0.37, 1.0):
            out = dense(
                fedcore.apply_sparsifier(params, ClientConfig(sparsifier="topk", beta=beta)), params
            )
            nnz = sum(int(np.count_nonzero(v)) for v in out.values())
            assert nnz <= math.ceil(beta * total)


class TestCompactPrivateChannel:
    def test_private_channel_stores_sixteen_bytes_per_kept_entry(self):
        cfg = harness.ExperimentConfig()
        cfg.run.clients = 3
        cfg.run.hidden = 128
        cfg.data.n_graphs = 30
        server, clients, _ = harness.build_simulation(cfg)
        for _ in range(2):
            fedcore.run_round(server, clients)
        size = sum(v.size for v in clients[0].w.values())
        for c in clients:
            nnz = int(np.count_nonzero(c.s.values))
            assert 0 < nnz < size // 10
            # An int64 position and a float64 value per entry, and nothing
            # stored for the dropped ones.
            assert c.s.positions.nbytes + c.s.values.nbytes == 16 * nnz

    def test_sparsifier_stores_no_zeros(self):
        params = {"a": np.array([[0.5, 0.0], [-0.0, np.nan]]), "b": np.array([[0.0, 2.0]])}
        out = fedcore.apply_sparsifier(params, ClientConfig(cut_sparse=0.0))
        assert out.positions.tolist() == [0, 3, 5]
        assert out.positions.dtype == np.int64 and out.values.dtype == np.float64

    @pytest.mark.parametrize(
        "positions, values, problem",
        [
            ([3, 1], [1.0, 2.0], "ascend"),
            ([1, 1], [1.0, 2.0], "ascend"),
            ([0, 99], [1.0, 2.0], "outside"),
            ([-1, 0], [1.0, 2.0], "outside"),
            ([0, 1], [1.0], "values for 2 positions"),
        ],
        ids=["unsorted", "repeated", "past-the-end", "negative", "one-value-short"],
    )
    def test_client_state_refuses_a_malformed_private_channel(self, positions, values, problem):
        _, clients = make_clients(n_clients=1)
        c = clients[0]
        s = gnn.SparseParams(np.array(positions, dtype=np.int64), np.array(values))
        with pytest.raises(ShapeMismatch, match=problem):
            dataclasses.replace(c, s=s)


class TestLocalSteps:
    def test_alpha_zero_matches_plain_sgd(self):
        # Single-machine oracle: same batches, same eta, no pull, no correction.
        _, clients = make_clients(n_clients=1, alpha=0.0, local_epochs=3)
        c = clients[0]
        reference = clone_params(c.w)
        expected = clone_params(c.w)
        for _ in range(3):
            _, grads = gnn.loss_and_grad(expected, c.train.batch)
            expected = {k: expected[k] - c.cfg.eta * grads[k] for k in expected}
        fedcore.local_train_round(c, c.w)
        assert max_rel_frob(c.w, expected) <= 1e-12
        del reference

    def test_minibatches_follow_a_fresh_permutation_each_epoch(self):
        # batch_size 3 over 16 train graphs: six steps per epoch, the last
        # holding one graph, each gathered from the client RNG's permutation.
        _, clients = make_clients(n_clients=1, alpha=0.0, local_epochs=2, batch_size=3)
        c = clients[0]
        graphs = c.train.graphs
        rng = np.random.default_rng([0, 0])
        expected = clone_params(c.w)
        for _ in range(2):
            order = rng.permutation(len(graphs))
            for start in range(0, len(order), 3):
                batch = batch_of([graphs[i] for i in order[start : start + 3]])
                _, grads = gnn.loss_and_grad(expected, batch)
                expected = {k: expected[k] - c.cfg.eta * grads[k] for k in expected}
        assert len(fedcore.local_train_round(c, c.w)) == 12
        assert max_rel_frob(c.w, expected) <= 1e-12

    def test_zero_gradient_pulls_toward_global_view(self):
        # With zero gradients and correction the update is the linear
        # recurrence w <- w + eta*alpha*(theta - w).
        theta = {"m": np.array([[2.0, -1.0]])}
        w = {"m": np.array([[0.0, 0.0]])}
        h = {"m": np.zeros((1, 2))}
        zero_grads = {"m": np.zeros((1, 2))}
        eta, alpha = 0.1, 0.5
        for step in range(1, 4):
            w = fedcore.lowrank_channel_step(w, zero_grads, h, theta, eta, alpha)
            shrink = (1.0 - eta * alpha) ** step
            expected = theta["m"] * (1.0 - shrink)
            assert np.allclose(w["m"], expected, atol=1e-12)

    def test_correction_cancels_gradient(self):
        grads = {"m": np.array([[0.3, -0.7]])}
        w = {"m": np.array([[1.0, 1.0]])}
        theta = {"m": np.array([[5.0, 5.0]])}
        out = fedcore.lowrank_channel_step(w, grads, grads, theta, eta=0.1, alpha=0.5)
        expected = w["m"] + 0.1 * 0.5 * (theta["m"] - w["m"])
        assert np.allclose(out["m"], expected, atol=1e-15)

    def test_divergence_detection(self):
        theta0, clients = make_clients(n_clients=1, eta=1e9, local_epochs=2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceDetected):
            for _ in range(50):
                fedcore.local_train_round(clients[0], theta0)


class TestFinetune:
    def test_zero_epochs_leaves_s_untouched(self):
        _, clients = make_clients(n_clients=1, finetune_epochs=0)
        c = clients[0]
        before = dense(c.s, c.w)
        fedcore.finetune_sparse(c, c.w)
        for k in before:
            assert np.array_equal(dense(c.s, c.w)[k], before[k])

    def test_beta_one_nu_zero_is_plain_sgd_on_s(self):
        _, clients = make_clients(
            n_clients=1,
            nu=0.0,
            sparsifier="topk",
            beta=1.0,
            finetune_epochs=2,
        )
        c = clients[0]
        expected = dense(c.s, c.w)
        for _ in range(2):
            _, grads = gnn.loss_and_grad(gnn.combine(c.w, compact(expected)), c.train.batch)
            expected = {k: expected[k] - c.cfg.eta * grads[k] for k in expected}
        fedcore.finetune_sparse(c, c.w)
        assert max_rel_frob(dense(c.s, c.w), expected) <= 1e-12

    def test_beta_zero_keeps_s_all_zero(self):
        _, clients = make_clients(
            n_clients=1, sparsifier="topk", beta=0.0, finetune_epochs=3
        )
        c = clients[0]
        for _ in range(3):
            fedcore.finetune_sparse(c, c.w)
        assert all(not v.any() for v in dense(c.s, c.w).values())

    def test_nan_private_channel_is_divergence(self):
        # The sparsifier keeps NaN, so fine-tuning reports it instead of
        # zeroing the private channel.
        _, clients = make_clients(n_clients=1)
        c = clients[0]
        s = dense(c.s, c.w)
        name = next(iter(s))
        s[name][0, 0] = np.nan
        c.s = compact(s)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceDetected):
            fedcore.finetune_sparse(c, c.w)

    def test_sparsifier_postcondition_after_each_epoch(self):
        _, clients = make_clients(
            n_clients=1, sparsifier="topk", beta=0.2, finetune_epochs=1
        )
        c = clients[0]
        total = sum(v.size for v in dense(c.s, c.w).values())
        for _ in range(4):
            fedcore.finetune_sparse(c, c.w)
            nnz = sum(int(np.count_nonzero(v)) for v in dense(c.s, c.w).values())
            assert nnz <= math.ceil(0.2 * total)


class TestCorrection:
    def test_fixed_point_when_w_equals_view(self):
        _, clients = make_clients(n_clients=1)
        c = clients[0]
        view = clone_params(c.w)
        c.h = {k: np.full_like(v, 0.25) for k, v in c.h.items()}
        before = clone_params(c.h)
        fedcore.update_correction(c, view, steps=1)
        for k in before:
            assert np.array_equal(c.h[k], before[k])

    def test_direct_substitution(self):
        # h gains (view - w) / (eta * steps); no local steps leave h alone.
        for steps in (0, 1, 4):
            _, clients = make_clients(n_clients=1, eta=1.0)
            c = clients[0]
            view = c.w
            delta = {k: np.full_like(v, 0.5) for k, v in view.items()}
            c.w = {k: view[k] - delta[k] for k in view}
            fedcore.update_correction(c, view, steps)
            for k in delta:
                expected = delta[k] / steps if steps else np.zeros_like(delta[k])
                assert np.allclose(c.h[k], expected, atol=1e-15)

    def test_non_finite_correction_raises_on_a_skipped_round(self):
        # Skipped rounds encode no uplink, so the correction update itself
        # must catch a blown-up h.
        theta0, clients = make_clients(n_clients=1, local_epochs=0, finetune_epochs=0)
        clients[0].h = {k: np.full_like(v, np.inf) for k, v in clients[0].h.items()}
        server = make_server(theta0, p=0.0)
        with pytest.raises(DivergenceDetected):
            fedcore.run_round(server, clients)

    def test_several_local_steps_stay_finite(self):
        # Each of the nine minibatch steps per round subtracts eta * h, so a
        # correction update divided by eta alone blew up within ten rounds.
        cfg = harness.ExperimentConfig()
        cfg.run.clients = 4
        cfg.data.n_graphs = 40
        cfg.client.batch_size = 3
        cfg.client.local_epochs = 3
        cfg.server.r_bits = 16
        server, clients, _ = harness.build_simulation(cfg)
        for _ in range(20):
            fedcore.run_round(server, clients)
        assert gnn.params_finite(server.theta)
        for c in clients:
            assert all(gnn.params_finite(x) for x in (c.w, c.s, c.h))

    def test_two_identical_rounds_accumulate(self):
        _, clients = make_clients(n_clients=1, eta=0.5)
        c = clients[0]
        view = c.w
        delta = {k: np.full_like(v, 0.2) for k, v in view.items()}
        c.w = {k: view[k] - delta[k] for k in view}
        fedcore.update_correction(c, view, steps=1)
        fedcore.update_correction(c, view, steps=1)
        for k in delta:
            assert np.allclose(c.h[k], 2.0 * delta[k] / 0.5, atol=1e-12)


class TestUplink:
    def test_payload_has_one_tensor_per_parameter(self):
        _, clients = make_clients(n_clients=1)
        zero = gnn.zeros_like_params(clients[0].w)
        payload = fedcore.client_uplink(clients[0], zero, "quantized", r_bits=8)
        decoded = compress.decode_payload(payload, zero)
        assert list(decoded) == list(clients[0].w)

    @pytest.mark.parametrize("r", [4, 8, 16])
    def test_uplink_decodes_to_the_drift_corrected_step(self, r):
        # The change and the correction term travel combined, named like the
        # parameters; each decoded entry is off by at most 2**-r of its
        # tensor's norm (rounding, or saturation of the largest entry).
        _, clients = make_clients(n_clients=1, eta=0.05)
        c = clients[0]
        rng = np.random.default_rng(r)
        anchor = {k: v + rng.normal(scale=0.1, size=v.shape) for k, v in c.w.items()}
        c.h = {k: rng.normal(size=v.shape) for k, v in c.w.items()}
        payload = fedcore.client_uplink(c, anchor, "quantized", r_bits=r)
        decoded = compress.decode_payload(payload, anchor)
        assert list(decoded) == list(c.w)
        for k in c.w:
            step = c.w[k] - anchor[k] - 0.05 * c.h[k]
            bound = 2.0**-r * np.linalg.norm(step)
            assert np.max(np.abs(decoded[k] - step)) <= bound, k

    def test_high_precision_uplink(self):
        _, clients = make_clients(n_clients=1)
        c = clients[0]
        zero = gnn.zeros_like_params(c.w)
        decoded = compress.decode_payload(fedcore.client_uplink(c, zero, "quantized", 32), zero)
        for k, v in c.w.items():
            err = np.linalg.norm(decoded[k] - v)
            assert err <= 1e-6 * max(np.linalg.norm(v), 1e-12)

    def test_quantized_uplink_is_smaller_than_dense(self):
        _, clients = make_clients(n_clients=1)
        c = clients[0]
        dense_bits = compress.payload_bits(compress.encode_payload(c.w, "dense"))
        for r in (4, 8, 16):
            bits = compress.payload_bits(
                fedcore.client_uplink(c, gnn.zeros_like_params(c.w), "quantized", r_bits=r)
            )
            assert bits < dense_bits


class TestAggregate:
    def test_single_client_identity(self):
        rng = np.random.default_rng(1)
        w = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3))}
        h = gnn.zeros_like_params(w)
        theta = fedcore._aggregate(w, [step_payload(w, h, 0.01)], [10])
        assert max_rel_frob(theta, w) <= 1e-8

    def test_two_equal_clients_average(self):
        rng = np.random.default_rng(2)
        w1 = {"a": rng.normal(size=(4, 4))}
        w2 = {"a": rng.normal(size=(4, 4))}
        zero = gnn.zeros_like_params(w1)
        theta = fedcore._aggregate(
            w1, [step_payload(w1, zero, 0.01), step_payload(w2, zero, 0.01)], [7, 7]
        )
        assert np.allclose(theta["a"], 0.5 * (w1["a"] + w2["a"]), atol=1e-8)

    def test_gradient_descent_identity(self):
        # When every client reports w_i = theta_prev and h_i = grad_i, the
        # aggregate is theta_prev - eta * weighted mean grad.
        rng = np.random.default_rng(3)
        theta_prev = {"a": rng.normal(size=(5, 4))}
        grads = [{"a": rng.normal(size=(5, 4))} for _ in range(3)]
        sizes = [2, 3, 5]
        eta = 0.05
        payloads = [step_payload(theta_prev, g, eta) for g in grads]
        theta = fedcore._aggregate(theta_prev, payloads, sizes)
        mean_grad = sum(s * g["a"] for s, g in zip(sizes, grads)) / sum(sizes)
        assert np.allclose(theta["a"], theta_prev["a"] - eta * mean_grad, atol=1e-8)

    @pytest.mark.parametrize("merge", [True, False], ids=["merge", "plain"])
    def test_nonzero_anchor_gives_weighted_mean(self, merge):
        # Uplinks carry w_i - anchor, so with no correction term the anchor
        # plus the aggregate is the weighted mean of w_i: both the plain
        # aggregate and the merge a client applies, the anchor plus the
        # aggregate decoded from a dense downlink.
        rng = np.random.default_rng(4)
        anchor = {"a": rng.normal(size=(5, 4)), "b": rng.normal(size=(1, 4))}
        ws = [{k: rng.normal(size=v.shape) for k, v in anchor.items()} for _ in range(3)]
        sizes = [2, 3, 5]
        zero = gnn.zeros_like_params(anchor)
        payloads = [step_payload({k: w[k] - anchor[k] for k in w}, zero, 0.05) for w in ws]
        step = fedcore._aggregate(anchor, payloads, sizes)
        if merge:
            step = compress.decode_payload(compress.encode_payload(step, "dense"), anchor)
        for k in anchor:
            mean = sum(n * w[k] for n, w in zip(sizes, ws)) / sum(sizes)
            assert np.allclose(anchor[k] + step[k], mean, rtol=0.0, atol=1e-12)

    def test_non_finite_merge_is_divergence(self):
        # The mean step is finite, but the broadcast plus it overflows: the
        # round reports divergence before any client adopts the broadcast,
        # and raises no RuntimeWarning (the test settings make one an error).
        theta0, clients = make_clients(
            eta=1.0, local_epochs=0, finetune_epochs=0, use_correction=False
        )
        huge = {k: np.full(v.shape, 1e308) for k, v in theta0.items()}
        server = make_server(huge, algorithm="fedavg")
        for c in clients:
            c.w = dict(huge)
            c.h = {k: -v for k, v in huge.items()}  # each step is 1e308
        with pytest.raises(DivergenceDetected, match="server aggregation"):
            fedcore.run_round(server, clients)
        assert all(c.w[k] is huge[k] for c in clients for k in huge)

    @staticmethod
    def _uplinks(theta, count, scheme, seed):
        """Encoded random steps shaped like ``theta``."""
        rng = np.random.default_rng(seed)
        return [
            compress.encode_payload(
                {k: rng.normal(scale=0.1, size=v.shape) for k, v in theta.items()}, scheme, r=16
            )
            for _ in range(count)
        ]

    @pytest.mark.parametrize(
        ("scheme", "sizes"),
        [
            ("quantized", [3, 5, 11, 1]),
            ("dense", [3, 5, 11, 1]),  # the FedAvg preset's uplinks
            ("quantized", [0, 0, 0]),  # every participant is data-less: a plain mean
        ],
        ids=["quantized", "dense", "plain-mean"],
    )
    def test_streaming_merge_is_bit_identical(self, scheme, sizes):
        # Folding one decoded uplink at a time adds the same terms in the same
        # order as one weighted_sum over all decoded uplinks.
        theta0, _ = make_clients(hidden=16)
        payloads = self._uplinks(theta0, len(sizes), scheme, seed=len(sizes))
        total = sum(sizes)
        weights = [s / total for s in sizes] if total else [1 / len(sizes)] * len(sizes)
        decoded = [compress.decode_payload(p, theta0) for p in payloads]
        step = fedcore._aggregate(theta0, payloads, sizes)
        assert list(step) == list(theta0)
        for k in theta0:
            expected = linalg.weighted_sum([(w, d[k]) for w, d in zip(weights, decoded)])
            assert np.array_equal(step[k], expected), k

    @staticmethod
    def _duplicated(theta):
        """A dense payload of ``theta`` whose first tensor appears twice."""
        first = next(iter(theta))
        shapes = [(k, v.shape) for k, v in theta.items()] + [(first, theta[first].shape)]
        body = compress.encode_payload(theta, "dense").blob[HEADER_BYTES:]
        again = compress.encode_payload({first: theta[first]}, "dense").blob[HEADER_BYTES:]
        head = compress.MAGIC + struct.pack("<BB", compress.WIRE_VERSION, 4)
        return head + schema_check(shapes) + body + again

    @pytest.mark.parametrize(
        ("case", "error"),
        [
            ("missing", MalformedPayload),
            ("extra", MalformedPayload),
            ("renamed", MalformedPayload),
            ("reshaped", MalformedPayload),
            ("second-disagrees", MalformedPayload),
            ("duplicated", MalformedPayload),
            ("other-hidden", MalformedPayload),
        ],
    )
    def test_mismatched_uplink_is_refused(self, case, error):
        # The sum starts from the broadcast's tensors and an uplink is
        # decoded against their names and shapes, so one encoded from other
        # tensors fails the schema check instead of broadcasting into them or
        # failing on a missing key.
        theta0, _ = make_clients(hidden=4)
        good = {k: np.full(v.shape, 0.5) for k, v in theta0.items()}
        bad = dict(good)
        if case in ("missing", "second-disagrees"):
            del bad["head_b"]
        elif case == "extra":
            bad["extra"] = np.ones((1, 1))
        elif case == "renamed":
            bad["gnn1_bias"] = bad.pop("gnn1_b")
        elif case == "reshaped":
            bad["gnn1_w"] = np.ones((1, 4))
        elif case == "other-hidden":  # a model of another run.hidden
            bad = {k: np.full(v.shape, 0.5) for k, v in make_clients(hidden=8)[0].items()}
        uplinks = [compress.encode_payload(good, "dense")]
        if case == "duplicated":
            uplinks.append(self._duplicated(good))
        else:
            uplinks.append(compress.encode_payload(bad, "dense"))
        if case != "second-disagrees":
            uplinks.reverse()
        with pytest.raises(error, match="schema check"):
            fedcore._aggregate(theta0, uplinks, [1, 1])

    def test_mismatched_uplink_leaves_the_broadcast(self, monkeypatch):
        theta0, clients = make_clients(n_clients=3)
        server = make_server(theta0, p=1.0)
        real = fedcore.client_uplink

        def short_uplink(c, anchor, scheme, r_bits):
            step = compress.decode_payload(real(c, anchor, scheme, r_bits), anchor)
            del step["head_b"]
            return compress.encode_payload(step, scheme, r=r_bits)

        monkeypatch.setattr(fedcore, "client_uplink", short_uplink)
        with pytest.raises(MalformedPayload, match="schema check"):
            fedcore.run_round(server, clients)
        assert server.t == 0
        assert all(np.array_equal(server.theta[k], theta0[k]) for k in theta0)

    def test_merge_memory_does_not_grow_with_uplinks(self):
        # Uplinks of the wide benchmark's shapes (hidden 128, 8 features,
        # 16 bits).  The merge holds one decoded uplink at a time, so its
        # peak stays put as uplinks are added and stays below a handful of
        # decoded models.
        arch = ArchConfig(feature_dim=8, hidden=128, classes=3)
        theta = gnn.init_params(arch, seed=1)
        model_bytes = sum(v.nbytes for v in theta.values())
        payloads = self._uplinks(theta, 40, "quantized", seed=7)
        peaks = {}
        for count in (5, 20, 40):
            tracemalloc.start()
            try:
                fedcore._aggregate(theta, payloads[:count], [1] * count)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40] <= 1.1 * peaks[5]
        assert peaks[20] < 8 * model_bytes


class TestDropout:
    def test_tiny_drop_rate_rarely_drops(self):
        rng = np.random.default_rng(4)
        kept = 0
        for _ in range(1000):
            kept += len(fedcore.dropout_filter([0, 1, 2, 3], 1e-3, 1e3, rng))
        assert kept / 4000 >= 0.99

    def test_beta_10_1_survival_rate(self):
        rng = np.random.default_rng(5)
        kept = 0
        for _ in range(1000):
            kept += len(fedcore.dropout_filter(list(range(4)), 10.0, 1.0, rng))
        assert abs(kept / 4000 - 1.0 / 11.0) <= 0.03

    def test_empty_participants(self):
        rng = np.random.default_rng(6)
        assert fedcore.dropout_filter([], 10.0, 1.0, rng) == []


class TestRunRound:
    def test_p_one_always_communicates(self):
        theta0, clients = make_clients()
        server = make_server(theta0, p=1.0, r_bits=8, tau_lowrank=0.0)
        for _ in range(5):
            rec = fedcore.run_round(server, clients)
            assert rec.communicated
            assert rec.participants == [0, 1]
            assert rec.uplink_bits > 0 and rec.downlink_bits > 0

    def test_p_zero_never_communicates(self):
        theta0, clients = make_clients()
        server = make_server(theta0, p=0.0)
        for _ in range(5):
            rec = fedcore.run_round(server, clients)
            assert not rec.communicated
            assert rec.uplink_bits == 0 and rec.downlink_bits == 0
            assert rec.wall_time == 0.0

    def test_skip_rounds_point_view_at_own_weights(self):
        # A skipped round leaves each client on its own trained shared
        # channel, which is the next round's view.
        theta0, clients = make_clients()
        replay = copy.deepcopy(clients)
        server = make_server(theta0, p=0.0)
        fedcore.run_round(server, clients)
        for c, r in zip(clients, replay):
            fedcore.local_train_round(r, r.w)
            assert max_rel_frob(c.w, r.w) == 0.0

    def test_communicated_round_syncs_every_client(self, monkeypatch):
        # The server and every client move from the previous broadcast by
        # the decoded downlink delta, bit for bit, into one read-only set of
        # arrays that they all share.
        theta0, clients = make_clients(n_clients=3, n_graphs=24)
        server = make_server(theta0, p=1.0, rho=0.3)  # ceil(3 * 0.3) = 1 sampled
        previous = clone_params(server.theta)
        decoded = []
        real = compress.decode_payload

        def recording(payload, like):
            decoded.append(real(payload, like))
            return decoded[-1]

        monkeypatch.setattr(compress, "decode_payload", recording)
        rec = fedcore.run_round(server, clients)
        assert len(rec.participants) == 1
        assert len(decoded) == 2  # one uplink, then the downlink
        downlink = decoded[-1]
        assert any(v.any() for v in downlink.values())
        expected = {k: previous[k] + downlink[k] for k in previous}
        for c in clients:
            for k in expected:
                assert np.array_equal(c.w[k], expected[k])
                assert np.array_equal(server.theta[k], expected[k])
                assert c.w[k] is server.theta[k] and not c.w[k].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            clients[0].w["head_b"][0, 0] = 1.0
        # Nothing writes the shared arrays in place, so a second round runs.
        fedcore.run_round(server, clients)

    def test_rho_sampling_count(self):
        theta0, clients = make_clients(n_clients=5, n_graphs=40)
        server = make_server(theta0, p=1.0, rho=0.5)
        rec = fedcore.run_round(server, clients)
        assert len(rec.participants) == math.ceil(5 * 0.5)

    @pytest.mark.parametrize(("n_clients", "rho"), [(100, 0.07), (25, 0.28), (50, 0.14)])
    def test_rho_sampling_count_is_the_ceiling_of_the_decimal_product(self, n_clients, rho):
        # n_clients * rho is 7.000000000000001 in float64, whose ceiling is 8.
        assert math.ceil(n_clients * rho) == 8
        theta0, clients = make_clients(n_clients=n_clients, n_graphs=4 * n_clients)
        server = make_server(theta0, p=1.0, rho=rho)
        rec = fedcore.run_round(server, clients)
        assert len(rec.participants) == 7

    def test_zero_survivor_round_keeps_theta(self):
        theta0, clients = make_clients()
        server = make_server(theta0, p=1.0, dropout_a=1e6, dropout_b=1e-3)  # drops everyone
        before = clone_params(server.theta)
        rec = fedcore.run_round(server, clients)
        assert rec.communicated
        assert rec.participants == []
        assert max_rel_frob(server.theta, before) == 0.0
        assert rec.uplink_bits == 0 and rec.downlink_bits > 0

    def test_one_svd_per_factorable_downlinked_matrix(self, monkeypatch):
        # The low-rank downlink encoder is the only place that decomposes a
        # matrix: the merge takes none, and the encoder one per downlinked
        # matrix without a unit dimension.
        calls = []
        real_svd, real_aggregate = linalg.svd, fedcore._aggregate

        def counting_svd(a):
            calls.append(np.shape(a))
            return real_svd(a)

        def aggregate(*args):
            before = len(calls)
            out = real_aggregate(*args)
            assert len(calls) == before, "the merge ran an SVD"
            return out

        monkeypatch.setattr(linalg, "svd", counting_svd)
        monkeypatch.setattr(fedcore, "_aggregate", aggregate)
        theta0, clients = make_clients(n_clients=3)
        server = make_server(theta0, p=1.0, r_bits=8, tau_lowrank=0.3)
        rec = fedcore.run_round(server, clients)
        assert rec.communicated and rec.participants == [0, 1, 2]
        factorable = [v.shape for v in theta0.values() if min(v.shape) > 1]
        assert len(factorable) == 4
        assert calls == factorable

    def test_determinism(self):
        records = []
        for _ in range(2):
            theta0, clients = make_clients(seed=7)
            server = make_server(theta0, seed=7, p=0.5, dropout_a=2.0, dropout_b=5.0)
            records.append([dataclasses.asdict(fedcore.run_round(server, clients)) for _ in range(12)])
        assert records[0] == records[1]

    def test_sparsity_invariant_maintained(self):
        theta0, clients = make_clients(
            sparsifier="topk", beta=0.1, finetune_epochs=1
        )
        server = make_server(theta0, p=0.5)
        total = sum(v.size for v in dense(clients[0].s, clients[0].w).values())
        for _ in range(6):
            fedcore.run_round(server, clients)
            for c in clients:
                nnz = sum(int(np.count_nonzero(v)) for v in dense(c.s, c.w).values())
                assert nnz <= math.ceil(0.1 * total)

    def test_uplinks_encoded_only_for_communicated_participants(self, monkeypatch):
        calls = []
        real = fedcore.client_uplink

        def counting(c, *args):
            calls.append(c.id)
            return real(c, *args)

        monkeypatch.setattr(fedcore, "client_uplink", counting)
        theta0, clients = make_clients(n_clients=4, n_graphs=32, seed=5)
        server = make_server(theta0, seed=5, p=0.5, rho=0.75, dropout_a=2.0, dropout_b=5.0)
        for _ in range(12):
            before = len(calls)
            rec = fedcore.run_round(server, clients)
            assert calls[before:] == (rec.participants if rec.communicated else [])

    def test_communication_accounting_matches_wire_format(self, monkeypatch):
        self._check_accounting(monkeypatch, tau=0.0, hidden=4)

    def test_communication_accounting_with_truncated_downlink(self, monkeypatch):
        # At hidden 4 no truncated matrix has factors shorter than itself;
        # at hidden 8 the downlink mixes factored and plain bodies.
        self._check_accounting(monkeypatch, tau=0.3, hidden=8)

    def _check_accounting(self, monkeypatch, tau, hidden):
        # The round bills exactly the payloads it encodes: one uplink per
        # survivor and one downlink per client.
        sent, shared = [], {}
        real_encode, real_uplink = compress.encode_payload, fedcore.client_uplink

        def recording(tensors, scheme, **kwargs):
            sent.append((dict(tensors), real_encode(tensors, scheme, **kwargs)))
            return sent[-1][1]

        def snapshot(c, *args, **kwargs):
            shared[c.id] = (c.w, c.h)
            return real_uplink(c, *args, **kwargs)

        monkeypatch.setattr(compress, "encode_payload", recording)
        monkeypatch.setattr(fedcore, "client_uplink", snapshot)
        theta0, clients = make_clients(n_clients=3, hidden=hidden)
        server = make_server(theta0, p=1.0, r_bits=8, tau_lowrank=tau)
        fedcore.run_round(server, clients)  # moves the broadcast off theta0
        anchor = clone_params(server.theta)
        # Idle clients still hold the broadcast, so their change is zero:
        # client 0 with its correction term cleared sends zero tensors, and
        # client 1 sends -eta * h for the correction term it keeps.
        for c in clients[:2]:
            c.cfg = dataclasses.replace(c.cfg, local_epochs=0)
        clients[0].h = gnn.zeros_like_params(anchor)
        assert any(v.any() for v in clients[1].h.values())
        sent.clear()
        rec = fedcore.run_round(server, clients)
        *uplinks, (delta, down) = sent
        assert len(uplinks) == len(rec.participants) == len(clients)
        up_bits = [compress.payload_bits(p) for _, p in uplinks]
        assert up_bits[0] < up_bits[1]  # zero bodies cost one byte each
        assert up_bits[0] < up_bits[2]
        assert rec.uplink_bits == sum(up_bits)
        assert rec.downlink_bits == len(clients) * compress.payload_bits(down)

        # Uplinks carry w - anchor - eta * h, one tensor per parameter; the
        # downlink encoder receives their weighted mean, uncut at any tau,
        # and everyone moves the anchor by its decoded value.
        sizes = [len(c.train) for c in clients]
        for c, (tensors, _) in zip(clients, uplinks):
            w, h = shared[c.id]
            assert list(tensors) == list(anchor)
            for k in anchor:
                assert np.array_equal(tensors[k], w[k] - anchor[k] - c.cfg.eta * h[k])
        assert not any(v.any() for v in uplinks[0][0].values())
        idle_h = shared[clients[1].id][1]
        for k in anchor:
            assert np.array_equal(uplinks[1][0][k], -clients[1].cfg.eta * idle_h[k])
        ups = [compress.decode_payload(p, anchor) for _, p in uplinks]
        decoded = compress.decode_payload(down, anchor)
        for k in anchor:
            merged = sum(n * u[k] for n, u in zip(sizes, ups)) / sum(sizes)
            np.testing.assert_allclose(delta[k], merged, rtol=0, atol=1e-12)
            np.testing.assert_allclose(server.theta[k] - anchor[k], decoded[k], atol=1e-12)

        # The low-rank ratios are those of the downlinked delta: rank k of an
        # m x n matrix travels as factors when they take fewer bits than the
        # plain segment and do not lengthen the payload, tensor by tensor in
        # order; otherwise the matrix travels plain and counts as full rank.
        # Stream sizes depend on the levels (r_bits = 8), so each is measured
        # on the vector it codes.
        ranks, values, bodies = {}, 0, [[segment_streams(v, 8)] for v in delta.values()]
        for i, (k, v) in enumerate(delta.items()):
            if min(v.shape) == 1:
                continue
            (m, n), dec = v.shape, linalg.svd(v)
            rank = linalg.retained_rank(dec, tau)
            pays = 0 < rank * (m + n) < m * n
            if pays:
                factors = [dec.u[:, :rank] * dec.sigma[:rank], dec.v[:, :rank]]
                factored = [segment_streams(f, 8) for f in factors]
                trial = bodies[:i] + [factored] + bodies[i + 1 :]
                pays = body_bits(factored) < body_bits(bodies[i])
                pays = pays and bodies_bytes(trial) <= bodies_bytes(bodies)
                bodies = trial if pays else bodies
            ranks[k] = rank if pays else min(m, n)
            values += rank * (m + n) if pays else m * n
        assert down.ranks == ranks
        full = sum(min(delta[k].shape) for k in ranks)
        assert rec.lowrank_rank_ratio == sum(ranks.values()) / full
        assert rec.lowrank_param_ratio == values / sum(delta[k].size for k in ranks)
        assert rec.lowrank_param_ratio <= 1.0
        assert (rec.lowrank_rank_ratio < 1.0) == (tau > 0.0)


class TestRoundMetrics:
    def test_train_loss_is_the_finetune_loss_at_the_round_start(self):
        # Full-batch steps: the one fine-tune step's loss is the loss of the
        # model each client ended the previous round with, view + s.
        theta0, clients = make_clients(n_clients=3, n_graphs=30)
        server = make_server(theta0, p=1.0)
        fedcore.run_round(server, clients)
        assert any(c.s.positions.size for c in clients)
        expected = [gnn.loss_and_grad(gnn.combine(c.w, c.s), c.train.batch)[0] for c in clients]
        rec = fedcore.run_round(server, clients)
        assert rec.participants == [0, 1, 2]
        assert rec.train_loss == expected

    def test_train_loss_is_the_mean_step_loss(self):
        # Two fine-tune epochs of minibatches: the mean of every step's loss
        # at view + s before the step, summed in step order.
        theta0, clients = make_clients(n_clients=1, finetune_epochs=2, batch_size=4)
        replay = copy.deepcopy(clients)[0]
        server = make_server(theta0, p=0.0)
        rec = fedcore.run_round(server, clients)
        fedcore.local_train_round(replay, theta0)
        losses = fedcore.finetune_sparse(replay, theta0)
        assert len(losses) == 2 * math.ceil(len(replay.train) / 4)
        assert rec.train_loss == [sum(losses) / len(losses)]

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox"])
    def test_a_baseline_reports_its_local_step_loss(self, algorithm):
        # No fine-tune step runs, so w is the whole model and its local
        # steps' loss is the train loss.
        theta0, clients = make_clients(algorithm=algorithm)
        server = make_server(theta0, algorithm=algorithm)
        expected = [gnn.loss_and_grad(c.w, c.train.batch)[0] for c in clients]
        rec = fedcore.run_round(server, clients)
        assert rec.train_loss == expected

    def test_clients_that_take_no_step_report_none(self):
        # ceil(4 * 0.5) = 2 clients are sampled; one more holds no train
        # graphs, and its test split alone is scored.
        theta0, clients = make_clients(n_clients=4, n_graphs=40)
        clients[3].train = clients[3].train.subset([])
        server = make_server(theta0, p=1.0, rho=0.5)
        for _ in range(4):
            rec = fedcore.run_round(server, clients)
            stepped = set(rec.participants) - {3}
            assert [v is not None for v in rec.train_loss] == [c.id in stepped for c in clients]
            assert len(rec.test_accuracy) == 4

    def test_one_evaluate_per_client_on_its_held_out_split(self, monkeypatch):
        # Every client with test graphs is scored on them alone; a test-less
        # client with train graphs falls back to one train-split call, and a
        # data-less one is not evaluated.
        theta0, clients = make_clients(n_clients=4, n_graphs=40)
        clients[2].test = clients[2].test.subset([])
        clients[3].train = clients[3].train.subset([])
        clients[3].test = clients[3].test.subset([])
        seen = []
        real = gnn.evaluate

        def recording(params, data):
            seen.append(data)
            return real(params, data)

        monkeypatch.setattr(gnn, "evaluate", recording)
        server = make_server(theta0, p=1.0)
        rec = fedcore.run_round(server, clients)
        scored = (clients[0].test, clients[1].test, clients[2].train)
        assert [id(d) for d in seen] == [id(d) for d in scored]
        assert rec.test_accuracy[3] == 0.0 and rec.train_loss[3] is None


class TestBaselines:
    def test_single_client_fedavg_theta_is_client_w(self):
        theta0, clients = make_clients(n_clients=1, algorithm="fedavg")
        server = make_server(theta0, algorithm="fedavg")
        fedcore.run_round(server, clients)
        # After the round the client was reset to theta, so replay one epoch.
        theta1, replay = make_clients(n_clients=1)
        for _ in range(replay[0].cfg.local_epochs):
            _, grads = gnn.loss_and_grad(replay[0].w, replay[0].train.batch)
            replay[0].w = {
                k: replay[0].w[k] - replay[0].cfg.eta * grads[k] for k in replay[0].w
            }
        assert max_rel_frob(server.theta, replay[0].w) <= 1e-12

    def test_identical_clients_are_symmetric(self):
        theta0, clients = make_clients(n_clients=1, n_graphs=10, algorithm="fedavg")
        base = clients[0]
        twin = ClientState(
            id=1,
            w=clone_params(base.w),
            s=compact(gnn.zeros_like_params(base.w)),
            h=gnn.zeros_like_params(base.w),
            train=base.train,
            test=base.test,
            cfg=base.cfg,
            rng=np.random.default_rng(0),
        )
        server = make_server(theta0, algorithm="fedavg")
        fedcore.run_round(server, [base, twin])
        assert max_rel_frob(base.w, twin.w) == 0.0

    def test_fedprox_step_examples(self):
        # FedProx's step w - eta*(g + mu*(w - theta)) is the shared-channel
        # step with h = 0 and alpha = mu; the fedavg preset is mu = 0.
        _, clients = make_clients(n_clients=1, algorithm="fedavg", mu_prox=3.0)
        c = clients[0]

        w0 = clone_params(c.w)
        _, grads = gnn.loss_and_grad(w0, c.train.batch)
        plain = {k: w0[k] - c.cfg.eta * grads[k] for k in w0}

        fedcore.local_train_round(c, w0)  # mu = 0
        assert max_rel_frob(c.w, plain) <= 1e-12

        # theta = w reduces to the plain step regardless of mu.
        c.w = clone_params(w0)
        c.cfg, *_ = fedcore.preset("fedprox", c.cfg, ServerConfig())
        assert c.cfg.alpha == 3.0
        fedcore.local_train_round(c, w0)
        assert max_rel_frob(c.w, plain) <= 1e-12

        # Away from theta the pull is mu * (theta - w) per unit step.
        c.w = clone_params(w0)
        shifted = {k: v + 1.0 for k, v in w0.items()}
        fedcore.local_train_round(c, shifted)
        expected = {k: plain[k] + c.cfg.eta * 3.0 for k in plain}
        assert max_rel_frob(c.w, expected) <= 1e-12


    def test_preset_sets_both_links(self):
        # cefgl quantizes its uplinks and sends a low-rank downlink; the
        # baselines send both links dense.
        links = {
            algorithm: fedcore.preset(algorithm, ClientConfig(), ServerConfig())[2:]
            for algorithm in fedcore.ALGORITHMS
        }
        assert links == {
            "cefgl": (compress.SCHEME_QUANTIZED, compress.SCHEME_LOWRANK),
            "fedavg": (compress.SCHEME_DENSE, compress.SCHEME_DENSE),
            "fedprox": (compress.SCHEME_DENSE, compress.SCHEME_DENSE),
        }

    def test_preset_returns_copies(self):
        # build_simulation sets the ablations on the preset's records, so
        # they must not be the config's sections.
        client, server = ClientConfig(mu_prox=0.3), ServerConfig()
        for algorithm in fedcore.ALGORITHMS:
            client_cfg, server_cfg, *_ = fedcore.preset(algorithm, client, server)
            assert client_cfg is not client and server_cfg is not server
            client_cfg.local_epochs, server_cfg.p = 7, 0.0
        assert (client, server) == (ClientConfig(mu_prox=0.3), ServerConfig())


class TestVariantKnobs:
    def test_proxskip_correction_updates_only_on_communication(self):
        theta0, clients = make_clients(proxskip_h=True)
        server = make_server(theta0, p=0.0)
        fedcore.run_round(server, clients)
        assert all(not v.any() for c in clients for v in c.h.values())
        theta0, clients = make_clients(proxskip_h=True)
        server = make_server(theta0, p=1.0)
        fedcore.run_round(server, clients)
        assert any(v.any() for c in clients for v in c.h.values())


class TestFedAvgReduction:
    def test_cefgl_degenerates_to_fedavg(self):
        # Oracle equivalence: the full pipeline with the personalization and
        # compression knobs neutralized, and the FedAvg preset, must track
        # plain weighted averaging.
        kwargs = dict(n_clients=3, n_graphs=26, seed=21, nu=0.0, algorithm="fedavg")
        setups = {
            "neutral": dict(p=1.0, rho=1.0, tau_lowrank=0.0, r_bits=32),
            "fedavg": dict(algorithm="fedavg"),
        }
        for name, server_kwargs in setups.items():
            theta0, clients = make_clients(**kwargs)
            reference = plain_fedavg_reference(theta0, clients, rounds=20)
            server = make_server(theta0, seed=3, **server_kwargs)
            for t in range(20):
                fedcore.run_round(server, clients)
                assert max_rel_frob(server.theta, reference[t]) <= 1e-6, (name, t)

    def test_correction_term_fixed_point_aggregate(self):
        # With w_i = view and constant h_i, aggregation returns
        # theta_prev - eta * weighted mean of h.
        rng = np.random.default_rng(9)
        theta_prev = {"a": rng.normal(size=(4, 4))}
        hs = [{"a": rng.normal(size=(4, 4))} for _ in range(2)]
        payloads = [step_payload(theta_prev, h, 0.1) for h in hs]
        theta = fedcore._aggregate(theta_prev, payloads, [1, 1])
        expected = theta_prev["a"] - 0.1 * 0.5 * (hs[0]["a"] + hs[1]["a"])
        assert np.allclose(theta["a"], expected, atol=1e-8)
