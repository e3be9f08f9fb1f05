"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The heavier criteria share one module-scoped batch of
label-skew runs.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cefgl import compress, fedcore, gnn, graphdata, harness, linalg
from cefgl.errors import IndexOutOfRange, MissingFile, ParseError
from cefgl.gnn import ArchConfig
from cefgl.graphdata import SynthSpec
from helpers import clone_params, compact, plain_fedavg_reference


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {label}")
        raise
    print(f"[PASS] criterion {number:02d}: {label}")


# ---------------------------------------------------------------------------
# Shared configurations


def skew_task_cfg(base_seed: int) -> harness.ExperimentConfig:
    """Synthetic label-skew task: 4 clients, 2 classes, skew 0.3, T=200."""
    cfg = harness.ExperimentConfig()
    cfg.run.clients = 4
    cfg.run.rounds = 200
    cfg.run.hidden = 8
    cfg.data.n_graphs = 400
    cfg.data.nodes_lo = 4
    cfg.data.nodes_hi = 7
    cfg.data.feature_dim = 3
    cfg.data.noise = 1.0
    cfg.data.partition = "label_skew"
    cfg.data.skew = 0.3
    cfg.client.eta = 0.02
    cfg.client.nu = 0.05
    cfg.client.sparsifier = "topk"
    cfg.client.beta = 0.1
    cfg.server.r_bits = 16
    return harness.with_base_seed(cfg, base_seed)


def dropout_cfg() -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig()
    cfg.run.clients = 4
    cfg.run.rounds = 200
    cfg.run.hidden = 4
    cfg.data.n_graphs = 40
    cfg.data.nodes_lo = 4
    cfg.data.nodes_hi = 6
    cfg.data.feature_dim = 2
    cfg.server.dropout_a = 10.0
    cfg.server.dropout_b = 1.0
    return harness.with_base_seed(cfg, 31)


SEEDS = (0, 1000, 2000, 3000, 4000)


@pytest.fixture(scope="module")
def skew_runs():
    """Final mean accuracies for the four variants over five paired seeds."""
    out = {"sparse_elapsed": 0.0}
    for variant in ("beta10", "beta100", "w_only", "s_only"):
        started = time.perf_counter()
        accs = []
        for seed in SEEDS:
            cfg = skew_task_cfg(seed)
            if variant == "beta100":
                cfg.client.beta = 1.0
            elif variant == "w_only":
                cfg.run.ablation = "w_only"
            elif variant == "s_only":
                cfg.run.ablation = "s_only"
            accs.append(harness.run_experiment(cfg).final_acc_mean)
        out[variant] = float(np.mean(accs))
        if variant in ("beta10", "beta100"):
            out["sparse_elapsed"] += time.perf_counter() - started
    return out


# ---------------------------------------------------------------------------
# Criteria


def test_c01_quantizer_error_bound():
    with criterion(1, "deterministic quantizer per-coordinate error bound"):
        rng = np.random.default_rng(1001)
        started = time.perf_counter()
        for _ in range(1000):
            x = rng.uniform(-1.0, 1.0, size=256)
            norm = np.linalg.norm(x)
            for r in (2, 4, 8):
                out = compress.dequantize(compress.quantize(x, r))
                assert np.max(np.abs(out - x)) <= norm / 2 ** (r + 1) + 1e-12
        assert time.perf_counter() - started < 5.0


def test_c02_quantizer_fidelity_32_bits():
    with criterion(2, "32-bit quantizer relative L2 error <= 1e-6"):
        rng = np.random.default_rng(1002)
        for _ in range(1000):
            x = rng.uniform(-1.0, 1.0, size=256)
            out = compress.dequantize(compress.quantize(x, 32))
            assert np.linalg.norm(out - x) <= 1e-6 * np.linalg.norm(x)


def test_c03_compression_accounting():
    with criterion(3, "4-bit payload <= 0.16 of dense, exact wire bit counts"):
        n = 4096
        x = np.random.default_rng(1003).uniform(-1.0, 1.0, size=(64, 64))
        quantized = compress.encode_payload({"t": x}, "quantized", r=4)
        dense = compress.encode_payload({"t": x}, "dense")
        header = (4 + 1 + 1 + 4) * 8  # magic, version, bit width, schema check
        # Every |x| < 1 while ||x|| is about 37, so each level rounds to 0:
        # a Rice segment with k = 0 codes each as one terminator bit, after
        # its tag and norm, with no remainder or sign bits.
        assert not compress.quantize(x, 4).levels.any()
        expected_quantized = header + 8 + 64 + n
        expected_dense = header + 8 + n * 64  # the 0xFF tag, values
        assert compress.payload_bits(quantized) == expected_quantized
        assert compress.payload_bits(dense) == expected_dense
        ratio = compress.payload_bits(quantized) / compress.payload_bits(dense)
        assert ratio <= 0.16


def test_c04_tsvd_eckart_young():
    with criterion(4, "truncation error equals discarded-sigma norm, exact rank rule"):
        rng = np.random.default_rng(1004)
        for _ in range(500):
            a = rng.uniform(-1.0, 1.0, size=(8, 6))
            res = linalg.svd(a)
            tau = float(rng.uniform(0.0, 1.1))
            left, right = linalg.lowrank_truncate(res, tau)
            approx, rank = left @ right.T, left.shape[1]
            assert rank == int(np.count_nonzero(res.sigma > tau * res.sigma[0]))
            expected_err = float(np.sqrt(np.sum(res.sigma[rank:] ** 2)))
            assert abs(np.linalg.norm(a - approx) - expected_err) <= 1e-8


def test_c05_gradient_oracle():
    with criterion(5, "backprop matches central finite differences"):
        started = time.perf_counter()
        rng = np.random.default_rng(1005)
        cfg = ArchConfig(feature_dim=3, hidden=4, classes=2)
        eps = 1e-5
        for trial in range(50):
            p = gnn.init_params(cfg, seed=trial)
            p = {k: v + 0.1 * rng.normal(size=v.shape) for k, v in p.items()}
            pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
            g = graphdata.Graph(
                n=5,
                edges=tuple(pr for pr in pairs if rng.random() < 0.45),
                features=rng.normal(size=(5, 3)),
                label=int(rng.integers(0, 2)),
            )
            _, analytic = gnn.loss_and_grad(p, [g])
            for name, mat in p.items():
                for idx in np.ndindex(mat.shape):
                    saved = mat[idx]
                    mat[idx] = saved + eps
                    up, _ = gnn.loss_and_grad(p, [g])
                    mat[idx] = saved - eps
                    down, _ = gnn.loss_and_grad(p, [g])
                    mat[idx] = saved
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(numeric), 1e-8)
                    assert abs(analytic[name][idx] - numeric) / denom <= 1e-4
        assert time.perf_counter() - started < 30.0


def _reduction_clients(seed):
    ds = graphdata.synth_generate(
        SynthSpec(n_graphs=20, feature_dim=3, noise=0.4), seed=seed
    )
    part = graphdata.partition_clients([ds], 2, graphdata.MODE_IID, seed=seed)
    arch = ArchConfig(feature_dim=3, hidden=4, classes=2)
    theta0 = gnn.init_params(arch, seed=seed + 1)
    # FedAvg's client settings; the server below keeps cefgl's quantized links.
    cfg, *_ = fedcore.preset("fedavg", fedcore.ClientConfig(nu=0.0), fedcore.ServerConfig())
    clients = []
    for cid in range(2):
        local = ds.subset(part.assignments[cid])
        train, _, test = graphdata.split_dataset(local, (0.8, 0.1, 0.1), seed=cid)
        clients.append(
            fedcore.ClientState(
                id=cid,
                w=clone_params(theta0),
                s=compact(gnn.zeros_like_params(theta0)),
                h=gnn.zeros_like_params(theta0),
                train=train,
                test=test,
                cfg=cfg,
                rng=np.random.default_rng(cid),
            )
        )
    return theta0, clients


def test_c06_fedavg_reduction_oracle():
    with criterion(6, "neutralized pipeline tracks plain averaging per round"):
        theta0, ours = _reduction_clients(77)
        ours_server = fedcore.ServerState(
            theta=clone_params(theta0),
            cfg=fedcore.ServerConfig(p=1.0, rho=1.0, tau_lowrank=0.0, r_bits=32),
            coin_rng=np.random.default_rng(5),
            sampling_rng=np.random.default_rng(6),
            dropout_rng=np.random.default_rng(7),
        )
        reference = plain_fedavg_reference(theta0, ours, rounds=20)
        for t, ref_theta in enumerate(reference):
            fedcore.run_round(ours_server, ours)
            for key in ours_server.theta:
                diff = np.linalg.norm(ours_server.theta[key] - ref_theta[key])
                scale = max(1.0, np.linalg.norm(ref_theta[key]))
                assert diff / scale <= 1e-6, (t, key)


def _skip_run(p):
    cfg = harness.ExperimentConfig()
    cfg.run.clients = 2
    cfg.run.rounds = 2000
    cfg.run.hidden = 4
    cfg.data.n_graphs = 12
    cfg.data.nodes_lo = 4
    cfg.data.nodes_hi = 6
    cfg.data.feature_dim = 2
    cfg.client.finetune_epochs = 0
    cfg.server.p = p
    cfg.server.tau_lowrank = 0.0
    return harness.run_experiment(harness.with_base_seed(cfg, 13))


def test_c07_communication_skipping():
    with criterion(7, "coin flips give binomial round counts and bit totals"):
        half = _skip_run(0.5)
        full = _skip_run(1.0)
        communicated = sum(1 for r in half.records if r.communicated)
        assert 933 <= communicated <= 1067
        assert all(r.communicated for r in full.records)
        skipped = [r for r in half.records if not r.communicated]
        assert all(r.uplink_bits == 0 and r.downlink_bits == 0 for r in skipped)
        bits_half = half.total_uplink_bits + half.total_downlink_bits
        bits_full = full.total_uplink_bits + full.total_downlink_bits
        assert 0.43 * bits_full <= bits_half <= 0.57 * bits_full


def test_c08_sparsity_trend(skew_runs):
    with criterion(8, "top-10% private channel matches dense within one point"):
        assert skew_runs["beta10"] >= skew_runs["beta100"] - 0.01
        assert skew_runs["sparse_elapsed"] < 300.0


def test_c09_personalization_benefit(skew_runs):
    with criterion(9, "dual-channel beats both single-channel ablations"):
        assert skew_runs["beta10"] >= skew_runs["w_only"]
        assert skew_runs["beta10"] >= skew_runs["s_only"]
        assert skew_runs["s_only"] <= skew_runs["w_only"]  # private-only is worst


def test_c10_dropout_robustness():
    with criterion(10, "Beta(10,1) dropout run stays finite at the right rate"):
        cfg = dropout_cfg()
        server, clients, _ = harness.build_simulation(cfg)
        records = [fedcore.run_round(server, clients) for _ in range(cfg.run.rounds)]
        assert len(records) == 200
        for c in clients:
            assert gnn.params_finite(c.w)
            assert gnn.params_finite(c.s)
            assert gnn.params_finite(c.h)
        assert gnn.params_finite(server.theta)
        survived = sum(len(r.participants) for r in records)
        sampled = sum(len(r.participants) + len(r.dropped) for r in records)
        assert abs(survived / sampled - 1.0 / 11.0) <= 0.05


def test_c11_tu_loader(tmp_path):
    with criterion(11, "TU fixture parses exactly; malformed inputs raise"):
        fixture = graphdata.write_tu_fixture(tmp_path / "fixture")
        ds = graphdata.load_tu_dataset(fixture)
        assert len(ds) == 2
        assert ds.num_classes == 2
        assert [g.n for g in ds.graphs] == [3, 2]
        assert [len(g.edges) for g in ds.graphs] == [3, 1]

        with pytest.raises(MissingFile):
            graphdata.load_tu_dataset(tmp_path / "absent")

        broken = graphdata.write_tu_fixture(tmp_path / "broken1")
        (broken / "FIXTURE_A.txt").write_text("1, nonsense\n")
        with pytest.raises(ParseError):
            graphdata.load_tu_dataset(broken)

        broken = graphdata.write_tu_fixture(tmp_path / "broken2")
        (broken / "FIXTURE_A.txt").write_text("1, 42\n")
        with pytest.raises(IndexOutOfRange):
            graphdata.load_tu_dataset(broken)

        broken = graphdata.write_tu_fixture(tmp_path / "broken3")
        (broken / "FIXTURE_graph_indicator.txt").write_text("1\n1\n1\n3\n3\n")
        with pytest.raises(ParseError):
            graphdata.load_tu_dataset(broken)


def test_c12_determinism(tmp_path):
    with criterion(12, "identical seeds give byte-identical round logs"):
        for name in ("first", "second"):
            harness.run_and_persist(dropout_cfg(), out_dir=tmp_path / name)
        first = (tmp_path / "first" / "rounds.jsonl").read_bytes()
        second = (tmp_path / "second" / "rounds.jsonl").read_bytes()
        assert first == second
