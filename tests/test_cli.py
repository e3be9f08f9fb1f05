import hashlib
import json
import os
import subprocess
import sys

import pytest

from cefgl import cli, graphdata


BASE_CONFIG = """
run.algorithm = cefgl
run.rounds = 3
run.clients = 2
run.hidden = 4
data.n_graphs = 12
data.nodes_lo = 4
data.nodes_hi = 6
data.feature_dim = 2
"""


def write_config(tmp_path, text=BASE_CONFIG, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCli:
    def test_run_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        assert (out / "rounds.jsonl").is_file()
        assert (out / "summary.csv").is_file()
        assert (out / "checkpoint.bin").is_file()
        assert "final acc" in capsys.readouterr().out

    def test_run_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "server.p = 2.0\n")
        assert cli.main(["run", str(cfg)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    # Values the synthetic generator or numpy's RNG would refuse once the run
    # started, or that it would carry into its records as inf and nan; the
    # config check refuses them first and names the key.  A finite noise
    # that overflows a feature shows only as the features are drawn, and is
    # a config error too.
    @pytest.mark.parametrize(
        "line, env_seed, named",
        [
            ("data.motifs = star,star", None, "data.motifs"),
            ("data.n_graphs = 1", None, "data.n_graphs"),
            ("seeds.init = -1", None, "seeds.init"),
            ("", "-3", "CEFGL_SEED"),
            ("run.algorithm = fedavg\nrun.ablation = s_only", None, "run.ablation"),
            ("server.downlink_scheme = quantized", None, "server.downlink_scheme"),
            (b"# caf\xe9", None, "exp.cfg:10: not UTF-8 text"),
            ("server.latency_ms = inf", None, "server.latency_ms"),
            ("data.noise = inf", None, "data.noise"),
            ("data.noise = 1e308", None, "data.noise"),
        ],
        ids=[
            "duplicate_motif",
            "n_graphs_below_motifs",
            "negative_seed",
            "negative_env_seed",
            "baseline_ablation",
            "removed_downlink_scheme",
            "not_utf8",
            "infinite_latency",
            "infinite_noise",
            "overflowing_noise",
        ],
    )
    def test_refused_config_exit_code(self, tmp_path, monkeypatch, capsys, line, env_seed, named):
        if env_seed is not None:
            monkeypatch.setenv("CEFGL_SEED", env_seed)
        if isinstance(line, bytes):
            cfg = tmp_path / "exp.cfg"
            cfg.write_bytes(BASE_CONFIG.encode() + line + b"\n")
        else:
            cfg = write_config(tmp_path, BASE_CONFIG + line + "\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and named in err

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.cfg")]) == cli.EXIT_CONFIG

    def test_divergence_exit_code(self, tmp_path, monkeypatch, capsys):
        from cefgl import harness
        from cefgl.errors import DivergenceDetected

        def explode(cfg, out_dir=None):
            raise DivergenceDetected("round 2: client 0 produced non-finite parameters")

        monkeypatch.setattr(harness, "run_and_persist", explode)
        cfg = write_config(tmp_path)
        assert cli.main(["run", str(cfg)]) == cli.EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err

    def test_inspect_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["inspect", str(out)]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "rounds:            3" in text
        assert "agree" in text

    def test_inspect_missing_dir_exit_code(self, tmp_path):
        assert cli.main(["inspect", str(tmp_path / "nowhere")]) == cli.EXIT_IO

    # Each breakage rewrites one file of a finished run; the message names
    # the file and the line at fault.
    @pytest.mark.parametrize(
        "breakage, named",
        [
            ("non_json", "rounds.jsonl:2"),
            ("non_utf8", "rounds.jsonl:3"),
            ("not_an_object", "rounds.jsonl:1"),
            ("missing_key", "rounds.jsonl:2"),
            ("unknown_key", "rounds.jsonl:3"),
            ("wrong_type", "rounds.jsonl:1"),
            ("null_accuracy", "rounds.jsonl:2"),
            ("csv_missing_column", "summary.csv:1"),
            ("csv_missing", "summary.csv does not exist"),
        ],
    )
    def test_inspect_malformed_run_exit_code(self, tmp_path, capsys, breakage, named):
        out = tmp_path / "out"
        assert cli.main(["run", str(write_config(tmp_path)), "--out", str(out)]) == cli.EXIT_OK
        jsonl = out / "rounds.jsonl"
        lines = jsonl.read_bytes().split(b"\n")
        records = [json.loads(line) for line in lines if line]
        if breakage == "non_json":
            lines[1] = lines[1][:-1]
        elif breakage == "non_utf8":
            lines[2] += b"\xff"
        elif breakage == "not_an_object":
            lines[0] = b"[1, 2]"
        elif breakage == "missing_key":
            del records[1]["wall_time"]
            lines[1] = json.dumps(records[1]).encode()
        elif breakage == "unknown_key":
            lines[2] = json.dumps(dict(records[2], extra=1)).encode()
        elif breakage == "wrong_type":
            lines[0] = json.dumps(dict(records[0], test_accuracy=[])).encode()
        elif breakage == "null_accuracy":  # only train_loss may hold nulls
            lines[1] = json.dumps(dict(records[1], test_accuracy=[None, 0.5])).encode()
        csv_path = out / "summary.csv"
        if breakage == "csv_missing_column":
            csv_path.write_text(csv_path.read_text().replace("uplink_bits", "uplink", 1))
        elif breakage == "csv_missing":
            csv_path.unlink()
        else:
            jsonl.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert cli.main(["inspect", str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "i/o error" in err and named in err

    def test_sweep_writes_per_value_dirs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli.main(
            ["sweep", str(cfg), "--axis", "r_bits", "--values", "4,8", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        assert (out / "r_bits=4" / "rounds.jsonl").is_file()
        assert (out / "r_bits=8" / "rounds.jsonl").is_file()

    @pytest.mark.parametrize(
        "breakage, named",
        [
            ("non_utf8", "FIXTURE_graph_labels.txt"),
            ("nan_attribute", "FIXTURE_node_attributes.txt:3"),
            ("missing_labels", "FIXTURE_graph_labels.txt"),
            ("bad_edge_line", "FIXTURE_A.txt:1"),
        ],
    )
    def test_malformed_tu_dataset_exit_code(self, tmp_path, capsys, breakage, named):
        root = graphdata.write_tu_fixture(tmp_path / "tu")
        if breakage == "non_utf8":
            (root / "FIXTURE_graph_labels.txt").write_bytes(b"1\n\xff\n")
        elif breakage == "nan_attribute":
            (root / "FIXTURE_node_attributes.txt").write_text("1\n1\nnan\n1\n1\n")
        elif breakage == "missing_labels":
            (root / "FIXTURE_graph_labels.txt").unlink()
        else:
            (root / "FIXTURE_A.txt").write_text("1, 2, 3\n")
        cfg = write_config(
            tmp_path, BASE_CONFIG + f"data.source = tu\ndata.tu_path = {root}\n"
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "i/o error" in err and named in err

    def test_tu_run_writes_the_same_files_cold_warm_and_after_a_broken_cache(self, tmp_path):
        root = graphdata.write_tu_fixture(tmp_path / "tu")
        cfg = write_config(
            tmp_path, f"run.rounds = 5\nrun.clients = 2\ndata.source = tu\ndata.tu_path = {root}\n"
        )
        cache = root / f"FIXTURE{graphdata.TU_CACHE_SUFFIX}"
        written = []
        for name in ("cold", "warm", "truncated"):
            if name == "truncated":
                cache.write_bytes(cache.read_bytes()[:100])
            out = tmp_path / name
            assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
            written.append([(out / f).read_bytes() for f in ("rounds.jsonl", "summary.csv")])
            if name == "cold":
                cached = cache.read_bytes()
        assert written[0] == written[1] == written[2]
        assert cache.read_bytes() == cached

    def test_make_fixture_then_load(self, tmp_path):
        target = tmp_path / "fixture"
        assert cli.main(["make-fixture", str(target)]) == cli.EXIT_OK
        ds = graphdata.load_tu_dataset(target)
        assert len(ds) == 2

    def test_seed_env_changes_run(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in "abc")
        monkeypatch.setenv("CEFGL_SEED", "1")
        cli.main(["run", str(cfg), "--out", str(out_a)])
        cli.main(["run", str(cfg), "--out", str(out_b)])
        monkeypatch.setenv("CEFGL_SEED", "2")
        cli.main(["run", str(cfg), "--out", str(out_c)])
        same = (out_a / "rounds.jsonl").read_bytes() == (out_b / "rounds.jsonl").read_bytes()
        different = (out_a / "rounds.jsonl").read_bytes() != (out_c / "rounds.jsonl").read_bytes()
        assert same and different


# Documented configs that 4-bit whole-model transfers blew up: the empty
# config finished with train losses up to 2.4e221, and the other three
# exited 3 at rounds 52, 33 and 97.  Each must train its 200 rounds.  The
# second ran with a quantized downlink, which server.tau_lowrank = 0 is.
BOUNDED_CONFIGS = {
    "defaults": "",
    "no_cut_tau_lowrank_zero": "client.cut_sparse = 0\nserver.tau_lowrank = 0\n",
    "proxskip_slow_link": (
        "client.proxskip_h = true\nserver.bandwidth_mbps = 12.5\nserver.latency_ms = 7\n"
    ),
    "minibatch_epochs": (
        "run.clients = 4\ndata.n_graphs = 40\nclient.batch_size = 3\nclient.local_epochs = 3\n"
    ),
}


@pytest.mark.parametrize("text", BOUNDED_CONFIGS.values(), ids=BOUNDED_CONFIGS.keys())
def test_documented_config_trains_without_blowing_up(tmp_path, monkeypatch, capsys, text):
    monkeypatch.delenv("CEFGL_SEED", raising=False)
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK, capsys.readouterr().err
    records = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
    assert len(records) == 200
    worst = max(v for r in records for v in r["train_loss"] if v is not None)
    assert worst < 10.0


# Run-level goldens: the SHA-256 of rounds.jsonl and summary.csv that
# `cefgl run` writes for three short configs, so a change to the round's
# arithmetic shows as a moved trajectory, not only as moved wire bytes.
# The first is the empty config (threshold sparsifier, low-rank downlink),
# the second keeps the top decile of the private channel, and the third
# trains the private channel alone from the initial model.  Each runs in a
# fresh interpreter at one BLAS thread on OpenBLAS' Haswell kernels
# (OPENBLAS_CORETYPE=Haswell, which needs AVX2), as the codec's wide golden
# does: the files depend on the CPU kernel OpenBLAS picks, so a pinned
# kernel makes the digests hold on CPUs with and without AVX-512 (numpy
# 2.4, OpenBLAS 0.3).  On an AVX-512 CPU's own kernels the files read
# fb5c10ac... / aaf63f2b..., 3aaa7ae9... / 91184837... and f8d96e1e... /
# 615650c1....  The first two were re-pinned for wire format 7,
# which bills fewer bits per payload: their files differ from format 6's
# only in uplink_bits and downlink_bits (and so in wall_time, which bills
# time by bits); s_only communicates nothing and held.  Wire format 8,
# which gives a segment of at least 4096 values a Rice parameter per row or
# per column where that saves bits, held all three unedited: these models
# have no such segment, and their files are byte-identical to format 7's.
# All three were re-pinned when train_loss became the mean loss of the
# round's own fine-tune steps, taken before each step, instead of a second
# pass over the train split after the round: their files differ from the
# earlier ones only in train_loss and summary.csv's mean_train_loss.  Every
# client trains every round in these configs, so none reports null.
RUN_GOLDENS = {
    "defaults": (
        "run.rounds = 20\n",
        "82c6533612c177aae8bc479f8654920f9f4d3d1f3c015998cc016ca78c3855e6",
        "f3797b09b8e233b9a459e2a2a522ac393638855de9778b826af214023acb516c",
    ),
    "topk": (
        "run.rounds = 20\nclient.sparsifier = topk\n",
        "b00fa901ebfe38605d10a53bd1d9abee0d029413a07a93dd51ee7777a0838e32",
        "6768709a81f1786bff2ff90d042200bea6e00891cc27bae96b4eaeeba9ea0df3",
    ),
    "s_only": (
        "run.rounds = 20\nrun.ablation = s_only\n",
        "74ad8bfcddefb0e149c4303b07cfb865609a4be5b6f15a5caabbca11d7631782",
        "ff0a0064707d3f4861f3f5448a7cb4e3585fe746409359f906487607584c26df",
    ),
}


@pytest.mark.parametrize("name", RUN_GOLDENS)
def test_run_outputs_match_golden_digests(tmp_path, name):
    text, jsonl_digest, csv_digest = RUN_GOLDENS[name]
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "CEFGL_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "cefgl.cli", "run", str(cfg), "--out", str(out)],
        env=env,
        capture_output=True,
        check=True,
    )
    digest = {
        f: hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("rounds.jsonl", "summary.csv")
    }
    assert digest == {"rounds.jsonl": jsonl_digest, "summary.csv": csv_digest}
