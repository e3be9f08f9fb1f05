import dataclasses
import re
import struct

import numpy as np
import pytest

from cefgl import fedcore, graphdata, harness
from cefgl.errors import ConfigError, IoError, VersionMismatch
from helpers import dense


def small_cfg(**overrides) -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig()
    cfg.run.clients = 2
    cfg.run.rounds = 4
    cfg.run.hidden = 4
    cfg.data.n_graphs = 16
    cfg.data.nodes_lo = 4
    cfg.data.nodes_hi = 6
    cfg.data.feature_dim = 2
    for key, value in overrides.items():
        section, field = key.split(".")
        setattr(getattr(cfg, section), field, value)
    return harness.with_base_seed(cfg, 5)


# Every range-checked client/server key with one value outside its range,
# and the key as the error message names it.
OUT_OF_RANGE = [
    ("client.eta = 0", "client.eta"),
    ("client.alpha = -0.1", "client.alpha"),
    ("client.nu = -1", "client.nu"),
    ("client.mu_prox = -1", "client.mu_prox"),
    ("client.sparsifier = random", "client.sparsifier"),
    ("client.cut_sparse = -0.5", "client.cut_sparse"),
    ("client.beta = 1.5", "client.beta"),
    ("client.local_epochs = -1", "client.local_epochs"),
    ("client.finetune_epochs = -1", "client.finetune_epochs"),
    ("client.batch_size = -1", "client.batch_size"),
    ("server.p = 1.5", "server.p"),
    ("server.rho = 0", "server.rho"),
    ("server.tau_lowrank = -1", "server.tau_lowrank"),
    ("server.r_bits = 33", "server.r_bits"),
    # No longer a key at all: refused as unknown, still by its name.
    ("server.downlink_scheme = zip", "server.downlink_scheme"),
    ("server.dropout_a = -1", "server.dropout_a/b"),
    ("server.dropout_b = -1", "server.dropout_a/b"),
    ("server.dropout_a = 2", "server.dropout_a/b"),  # one Beta parameter alone
    ("server.bandwidth_mbps = 0", "server.bandwidth_mbps"),
    ("server.latency_ms = -1", "server.latency_ms"),
]


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = harness.parse_config(path)
        assert cfg.server.p == 0.5
        assert cfg.client.alpha == 0.6
        assert cfg.client.nu == 0.5
        assert (cfg.data.train_frac, cfg.data.val_frac, cfg.data.test_frac) == (0.8, 0.1, 0.1)
        assert cfg.run.rounds == 200
        assert cfg.server.tau_lowrank == 0.0001
        assert cfg.client.cut_sparse == 0.001

    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# a comment\nserver.p = 0.25\nclient.alpha=0.1  # trailing\nrun.rounds = 7\n"
            "client.use_correction = false\n"
        )
        cfg = harness.parse_config(path)
        assert cfg.server.p == 0.25
        assert cfg.client.alpha == 0.1
        assert cfg.run.rounds == 7
        assert cfg.client.use_correction is False

    @pytest.mark.parametrize(
        "line, named", OUT_OF_RANGE, ids=[line.replace(" ", "") for line, _ in OUT_OF_RANGE]
    )
    def test_out_of_range_rejected(self, tmp_path, line, named):
        # parse_config is the only range check on the client and server
        # sections; the records fedcore runs on have none of their own.
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=re.escape(named)):
            harness.parse_config(path)

    @pytest.mark.parametrize("ablation", ["w_only", "s_only"])
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox"])
    def test_baselines_refuse_ablations(self, tmp_path, algorithm, ablation):
        # An ablation switches off a channel of cefgl; a baseline has no
        # private channel, and without its shared one it trains nothing.
        path = tmp_path / "bad.cfg"
        path.write_text(f"run.algorithm = {algorithm}\nrun.ablation = {ablation}\n")
        with pytest.raises(ConfigError, match="run.ablation"):
            harness.parse_config(path)
        path.write_text(f"run.ablation = {ablation}\n")
        assert harness.parse_config(path).run.ablation == ablation

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("server.teleport = 1\n")
        with pytest.raises(ConfigError, match="teleport"):
            harness.parse_config(path)
        path.write_text("nonsense.p = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            harness.parse_config(path)
        # The preset picks the downlink's scheme; server.tau_lowrank = 0 is
        # the quantized downlink.
        path.write_text("server.downlink_scheme = quantized\n")
        with pytest.raises(ConfigError, match="unknown key 'server.downlink_scheme'"):
            harness.parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.parse_config(tmp_path / "missing.cfg")

    def test_bad_syntax(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            harness.parse_config(path)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = tmp_path / "c.cfg"
        path.write_text("seeds.data = 1\n")
        monkeypatch.setenv(harness.SEED_ENV_VAR, "77")
        cfg = harness.parse_config(path)
        assert cfg.seeds.data == 77
        assert cfg.seeds.dropout == 81

    def test_tu_path_must_exist(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("data.source = tu\ndata.tu_path = /nope/missing\n")
        with pytest.raises(ConfigError):
            harness.parse_config(path)


class TestRunExperiment:
    def test_single_round_p_one(self):
        cfg = small_cfg(**{"server.p": 1.0, "run.rounds": 1})
        summary = harness.run_experiment(cfg)
        assert len(summary.records) == 1
        assert summary.records[0].communicated

    def test_clients_start_from_shared_read_only_arrays(self):
        server, clients, _ = harness.build_simulation(small_cfg(**{"server.p": 1.0}))
        for c in clients:
            for k in c.w:
                assert c.w[k] is server.theta[k] and not c.w[k].flags.writeable
            # Every private channel starts as one empty, read-only record.
            assert c.s is clients[0].s and c.s.positions.size == 0
            assert not (c.s.positions.flags.writeable or c.s.values.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            clients[1].h["head_b"][0, 0] = 1.0
        # Every party adopts the downlinked broadcast's arrays, read-only too.
        fedcore.run_round(server, clients)
        for c in clients:
            for k in c.w:
                assert c.w[k] is server.theta[k] and not c.w[k].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            clients[0].w["head_b"][0, 0] = 1.0

    def test_repeat_runs_identical(self):
        a = harness.run_experiment(small_cfg())
        b = harness.run_experiment(small_cfg())
        assert [r.__dict__ for r in a.records] == [r.__dict__ for r in b.records]
        assert a.partition_hash == b.partition_hash

    def test_round_index_attached_to_failures(self, monkeypatch):
        real = fedcore.run_round
        state = {"calls": 0}

        def flaky(server, clients):
            if state["calls"] == 3:
                raise RuntimeError("boom")
            state["calls"] += 1
            return real(server, clients)

        monkeypatch.setattr(fedcore, "run_round", flaky)
        with pytest.raises(RuntimeError, match="round 3: boom"):
            harness.run_experiment(small_cfg(**{"run.rounds": 8}))

    def test_cross_dataset_run(self):
        cfg = small_cfg(**{"data.partition": "cross_dataset"})
        summary = harness.run_experiment(cfg)
        assert len(summary.records) == cfg.run.rounds

    def test_tu_source_run(self, tmp_path):
        fixture = graphdata.write_tu_fixture(tmp_path / "tu")
        cfg = small_cfg(**{"run.clients": 1, "run.rounds": 2})
        cfg.data.source = "tu"
        cfg.data.tu_path = str(fixture)
        cfg.data.train_frac, cfg.data.val_frac, cfg.data.test_frac = 1.0, 0.0, 0.0
        summary = harness.run_experiment(cfg)
        assert len(summary.records) == 2

    def test_baseline_algorithms_run(self):
        for algorithm in ("fedavg", "fedprox"):
            cfg = small_cfg(**{"run.algorithm": algorithm, "run.rounds": 3})
            summary = harness.run_experiment(cfg)
            assert all(r.communicated for r in summary.records)
            # Four dense payloads a round (two uplinks, two downlinks), each
            # the header (magic, version, bit width, schema check), then a tag
            # byte and float64 values for each of the model's 8 tensors, 62
            # values.
            payload = 4 + 1 + 1 + 4 + 8 * 1 + 62 * 8
            assert summary.total_uplink_bits + summary.total_downlink_bits == 3 * 4 * payload * 8

    def test_separable_task_reaches_high_accuracy(self):
        # Establish the task with the plain-averaging oracle first, then
        # hold the full pipeline to the same bar.
        base = {
            "run.clients": 4,
            "run.rounds": 200,
            "run.hidden": 8,
            "data.n_graphs": 120,
            "data.noise": 0.3,
            "client.eta": 0.02,
            "server.r_bits": 16,
        }
        oracle = harness.run_experiment(small_cfg(**dict(base, **{"run.algorithm": "fedavg"})))
        assert oracle.final_acc_mean >= 0.9
        ours = harness.run_experiment(small_cfg(**base))
        assert ours.final_acc_mean >= 0.9


class TestSweep:
    def test_partition_hash_is_paired(self):
        cfg = small_cfg()
        summaries = harness.run_sweep(cfg, "p", [0.2, 0.8])
        assert summaries[0].partition_hash == summaries[1].partition_hash

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            harness.run_sweep(small_cfg(), "banana", [1])

    def test_r_bits_sweep_compression_ratio(self):
        cfg = small_cfg(
            **{
                "run.rounds": 3,
                "run.hidden": 64,
                "server.p": 1.0,
                "server.tau_lowrank": 0.0,
            }
        )
        four, thirtytwo = harness.run_sweep(cfg, "r_bits", [4, 32])
        bits4 = four.total_uplink_bits + four.total_downlink_bits
        bits32 = thirtytwo.total_uplink_bits + thirtytwo.total_downlink_bits
        assert bits4 / bits32 <= 0.16

    def test_p_sweep_scales_communication(self):
        cfg = small_cfg(**{"run.rounds": 400, "server.tau_lowrank": 0.0})
        half, full = harness.run_sweep(cfg, "p", [0.5, 1.0])
        bits_half = half.total_uplink_bits + half.total_downlink_bits
        bits_full = full.total_uplink_bits + full.total_downlink_bits
        comm = sum(1 for r in half.records if r.communicated)
        assert abs(comm / 400 - 0.5) <= 3 * 0.5 / 20  # binomial 3 sigma
        # Early rounds ship zero-marker segments (h starts at zero), so
        # per-round bits are only near-constant.
        assert abs(bits_half / bits_full - comm / 400) <= 0.03

    def test_tau_sweep_lowers_lowrank_ratio(self):
        cfg = small_cfg(**{"run.rounds": 6, "server.p": 1.0, "run.hidden": 8})
        zero, heavy = harness.run_sweep(cfg, "tau_lowrank", [0.0, 0.01])
        mean_ratio = lambda s: np.mean(
            [r.lowrank_rank_ratio for r in s.records if r.lowrank_rank_ratio is not None]
        )
        assert mean_ratio(heavy) <= mean_ratio(zero)
        assert mean_ratio(zero) == 1.0


class TestPersistence:
    def test_jsonl_line_count_and_csv_columns(self, tmp_path):
        cfg = small_cfg()
        summary = harness.run_experiment(cfg)
        out = harness.emit_metrics(summary, tmp_path / "out")
        lines = (out / "rounds.jsonl").read_text().strip().splitlines()
        assert len(lines) == cfg.run.rounds
        header = (out / "summary.csv").read_text().splitlines()[0].split(",")
        for needed in ("round", "communicated", "uplink_bits", "downlink_bits", "mean_acc"):
            assert needed in header

    def test_load_summary_recomputes_aggregates(self, tmp_path):
        summary = harness.run_experiment(small_cfg())
        out = harness.emit_metrics(summary, tmp_path / "out")
        loaded = harness.load_summary(out)
        assert loaded.final_acc_mean == summary.final_acc_mean
        assert loaded.total_uplink_bits == summary.total_uplink_bits
        assert len(loaded.records) == len(summary.records)

    def test_load_summary_detects_tampering(self, tmp_path):
        summary = harness.run_experiment(small_cfg())
        out = harness.emit_metrics(summary, tmp_path / "out")
        csv_path = out / "summary.csv"
        lines = csv_path.read_text().splitlines()
        lines[1] = lines[1].replace(lines[1].split(",")[2], "123456789", 1)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IoError):
            harness.load_summary(out)

    def test_null_train_losses_round_trip(self, tmp_path):
        # Half the clients are sampled each round; the others take no step
        # and report null, which summary.csv's mean leaves out.
        summary = harness.run_experiment(small_cfg(**{"run.clients": 4, "server.rho": 0.5}))
        out = harness.emit_metrics(summary, tmp_path / "out")
        loaded = harness.load_summary(out)
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        column = harness.CSV_COLUMNS.index("mean_train_loss")
        for rec, row in zip(loaded.records, rows):
            losses = [v for v in rec.train_loss if v is not None]
            assert [v is not None for v in rec.train_loss] == [
                cid in rec.participants for cid in range(4)
            ]
            assert row.split(",")[column] == repr(float(np.mean(losses)))
        assert [r.train_loss for r in loaded.records] == [r.train_loss for r in summary.records]

    def test_round_without_a_train_loss_has_an_empty_mean(self, tmp_path):
        summary = harness.run_experiment(small_cfg())
        record = dataclasses.replace(summary.records[0], train_loss=[None, None])
        out = harness.emit_metrics(harness.RunSummary([record], ""), tmp_path / "out")
        row = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert row[harness.CSV_COLUMNS.index("mean_train_loss")] == ""
        assert harness.load_summary(out).records[0].train_loss == [None, None]

    def test_missing_rounds_file(self, tmp_path):
        with pytest.raises(IoError):
            harness.load_summary(tmp_path)

    def test_checkpoint_roundtrip_and_resume(self, tmp_path):
        cfg = small_cfg(**{"run.rounds": 10})
        # Uninterrupted reference run.
        server, clients, _ = harness.build_simulation(cfg)
        reference = [fedcore.run_round(server, clients) for _ in range(10)]
        # Interrupted run: checkpoint after round 5, reload, continue.
        server, clients, _ = harness.build_simulation(cfg)
        first = [fedcore.run_round(server, clients) for _ in range(5)]
        harness.save_checkpoint((server, clients, 5), tmp_path / "ck.bin")
        server2, clients2, t = harness.load_checkpoint(tmp_path / "ck.bin")
        assert t == 5
        resumed = [fedcore.run_round(server2, clients2) for _ in range(5)]
        for ref, got in zip(reference, first + resumed):
            assert ref.__dict__ == got.__dict__

    @pytest.mark.parametrize("source", ["synth", "tu"])
    def test_runs_build_no_graph_records(self, tmp_path, monkeypatch, source):
        # Runs read a dataset's arrays; only the graphs view builds records.
        # A label-skew set-up and round with minibatches, and one on TU files.
        overrides = {
            "data.partition": "label_skew",
            "data.n_graphs": 40,
            "run.clients": 4,
            "client.batch_size": 3,
        }
        if source == "tu":
            graphdata.write_tu_fixture(tmp_path / "tu")
            overrides = {"data.source": "tu", "data.tu_path": str(tmp_path / "tu")}

        def no_record(*args, **kwargs):
            raise AssertionError("a run built a per-graph record")

        monkeypatch.setattr(graphdata, "Graph", no_record)
        server, clients, _ = harness.build_simulation(small_cfg(**overrides))
        fedcore.run_round(server, clients)
        harness.save_checkpoint((server, clients, 1), tmp_path / "ck.bin")
        harness.load_checkpoint(tmp_path / "ck.bin")
        with pytest.raises(AssertionError, match="per-graph record"):
            max(clients, key=lambda c: len(c.train)).train.graphs

    def test_checkpoint_leaves_out_cached_batches(self, tmp_path):
        server, clients, _ = harness.build_simulation(small_cfg(**{"run.rounds": 2}))
        fedcore.run_round(server, clients)
        assert all("batch" in vars(c.train) for c in clients)
        harness.save_checkpoint((server, clients, 1), tmp_path / "ck.bin")
        assert b"GraphBatch" not in (tmp_path / "ck.bin").read_bytes()
        server2, clients2, _ = harness.load_checkpoint(tmp_path / "ck.bin")
        assert not any("batch" in vars(c.train) for c in clients2)
        fedcore.run_round(server2, clients2)  # the resumed run rebuilds them
        assert all("batch" in vars(c.train) for c in clients2)

    def test_checkpoint_returns_equal_graphs(self, tmp_path):
        server, clients, _ = harness.build_simulation(small_cfg(**{"run.clients": 3}))
        harness.save_checkpoint((server, clients, 0), tmp_path / "ck.bin")
        _, clients2, _ = harness.load_checkpoint(tmp_path / "ck.bin")
        for c, c2 in zip(clients, clients2):
            for split, split2 in ((c.train, c2.train), (c.test, c2.test)):
                assert (split2.num_classes, split2.feature_dim, split2.name) == (
                    split.num_classes,
                    split.feature_dim,
                    split.name,
                )
                assert len(split2) == len(split)
                for g, g2 in zip(split.graphs, split2.graphs):
                    assert (g2.n, g2.edges, g2.label) == (g.n, g.edges, g.label)
                    assert all(type(i) is int for edge in g2.edges for i in edge)
                    assert type(g2.n) is int and type(g2.label) is int
                    assert g2.features.dtype == np.float64
                    assert np.array_equal(g2.features, g.features)

    def test_checkpoint_version_check(self, tmp_path):
        path = tmp_path / "ck.bin"
        harness.save_checkpoint({"x": 1}, path)
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(VersionMismatch):
            harness.load_checkpoint(path)
        path.write_bytes(blob[:4] + b"\x63\x00" + blob[6:])
        with pytest.raises(VersionMismatch):
            harness.load_checkpoint(path)
        # Version 1 stored the round-start view and val split per client.
        # A version-2 server state may lack a link-scheme field, which
        # unpickling would fill from the class default without a word.
        # Version 3 held dense private channels, version 4 pickled each
        # dataset's Graph objects, not its flat arrays, and version 5 nested
        # those arrays under a "graphs" key beside a stored feature width.
        for old in (1, 2, 3, 4, 5):
            path.write_bytes(blob[:4] + struct.pack("<H", old) + blob[6:])
            with pytest.raises(VersionMismatch, match=f"version {old} "):
                harness.load_checkpoint(path)

    def test_run_and_persist_writes_standard_layout(self, tmp_path):
        cfg = small_cfg()
        harness.run_and_persist(cfg, out_dir=tmp_path / "exp")
        assert (tmp_path / "exp" / "rounds.jsonl").is_file()
        assert (tmp_path / "exp" / "summary.csv").is_file()
        assert (tmp_path / "exp" / "checkpoint.bin").is_file()

    def test_failed_checkpoint_leaves_the_earlier_run_files(self, tmp_path, monkeypatch):
        out = tmp_path / "exp"
        harness.run_and_persist(small_cfg(), out_dir=out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["checkpoint.bin", "rounds.jsonl", "summary.csv"]

        def full_disk(obj, fh, protocol=None):
            fh.write(b"half a pickle")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(harness.pickle, "dump", full_disk)
        with pytest.raises(OSError, match="No space"):
            harness.run_and_persist(small_cfg(**{"run.rounds": 6}), out_dir=out)
        # No file changed, and no temporary file is left beside them.
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_jsonl_is_byte_deterministic(self, tmp_path):
        for name in ("a", "b"):
            harness.run_and_persist(small_cfg(), out_dir=tmp_path / name)
        assert (tmp_path / "a" / "rounds.jsonl").read_bytes() == (
            tmp_path / "b" / "rounds.jsonl"
        ).read_bytes()


class TestAblations:
    def test_w_only_never_grows_s(self):
        cfg = small_cfg(**{"run.ablation": "w_only", "run.rounds": 3})
        server, clients, _ = harness.build_simulation(cfg)
        for _ in range(3):
            fedcore.run_round(server, clients)
        assert all(not v.any() for c in clients for v in dense(c.s, c.w).values())

    def test_s_only_keeps_shared_channel_zero(self):
        cfg = small_cfg(**{"run.ablation": "s_only", "run.rounds": 3})
        server, clients, _ = harness.build_simulation(cfg)
        for _ in range(3):
            rec = fedcore.run_round(server, clients)
            assert not rec.communicated
        assert all(not v.any() for c in clients for v in c.w.values())
        assert all(not v.any() for v in server.theta.values())

    def test_s_only_trains_the_private_channel_from_the_initial_model(self):
        # With both channels at zero every ReLU gradient is zero and only
        # head_b could move.  With no L1 term and no cut, every move of s is
        # a gradient step.
        overrides = {"run.rounds": 3, "client.nu": 0.0, "client.cut_sparse": 0.0}
        _, full, _ = harness.build_simulation(small_cfg(**overrides))
        server, clients, _ = harness.build_simulation(
            small_cfg(**dict(overrides, **{"run.ablation": "s_only"}))
        )
        start = [dense(c.s, c.w) for c in clients]
        assert all(np.array_equal(s[k], full[0].w[k]) for s in start for k in s)
        for _ in range(3):
            fedcore.run_round(server, clients)
        now = [dense(c.s, c.w) for c in clients]
        moved = {k for s, t in zip(now, start) for k in s if not np.array_equal(s[k], t[k])}
        assert moved - {"head_b"}
