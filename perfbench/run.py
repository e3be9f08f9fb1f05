#!/usr/bin/env python3
"""cefgl benchmark: end-to-end run metrics, or a per-layer trace, for one
workload.

    python3 perfbench/run.py --workload skew --seed 7 --seconds 36 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
workload's inputs (a config file, for ``fleet`` also a TU dataset) are
generated from ``--seed`` before any timing.

``--trace 0`` measures end to end.  Set-up time is the median of several
in-process ``harness.build_simulation`` calls.  Then ``cefgl run <cfg>
--out <dir>`` runs in a fresh process, one at a time (closed loop), until
``--seconds`` is used up; each run's outputs are checked, and every run must
produce the same ``rounds.jsonl`` digest and wire bits.

``--trace 1`` runs the same command in-process, once untraced and then
traced with the public functions of every layer wrapped (see ``spans.py``),
and reports per-layer metrics; the wall-time gap is the tracing overhead.

BLAS runs single-threaded and ``CEFGL_SEED`` is cleared in every run.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with the manifest, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CEFGL_SEED", None)  # it would override the seed block

import argparse
import contextlib
import csv
import ctypes
import gc
import hashlib
import importlib
import io
import json
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up is timed in a batch of at least this many seconds (at least one
# set-up) before every run, so that its samples span the whole measurement.
SETUP_BATCH_S = 0.1
OP_TIMEOUT_S = 150.0
LAYERS = ("cli", "harness", "fedcore", "gnn", "compress", "linalg", "graphdata")
ENTRY_SPANS = ("cli.main", "harness.run_and_persist")
# End-to-end metrics in the result line.  final_acc and fail_ratio are
# printed and recorded too, but they are left out there: final_acc is
# deterministic per seed yet spreads widely across seeds, and fail_ratio is
# 0 on every workload that completes (the result line carries ``failed``).
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "wire_bits")

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import FnStats, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402


class CheckFailed(Exception):
    """A run's outputs are missing, inconsistent or differ between repeats."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to measure
    anything else."""
    if not (SRC / "cefgl" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'cefgl'}")
    sys.path.insert(0, str(SRC))
    import cefgl

    if Path(cefgl.__file__).resolve().parent != (SRC / "cefgl").resolve():
        raise SystemExit(f"perfbench: imported cefgl from {cefgl.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class RunOutputs:
    digest: str
    wire_bits: int
    final_acc: float
    records: List[dict]


def check_outputs(out_dir: Path, rounds: int, stdout: str) -> RunOutputs:
    """Validate the files ``cefgl run`` wrote against each other and its
    stdout, and extract the end-to-end values."""
    jsonl = out_dir / "rounds.jsonl"
    require(jsonl.is_file(), "rounds.jsonl missing")
    raw = jsonl.read_bytes()
    records = [json.loads(line) for line in raw.decode().splitlines()]
    require(len(records) == rounds, f"{len(records)} round records, want {rounds}")
    for t, rec in enumerate(records):
        up, down = rec["uplink_bits"], rec["downlink_bits"]
        require(rec["t"] == t, f"record {t} has t={rec['t']}")
        if rec["communicated"]:
            require(down > 0 and (up > 0) == bool(rec["participants"]), f"round {t}: bits")
        else:
            require(up == 0 and down == 0, f"round {t}: skipped round billed bits")
        require(all(0.0 <= a <= 1.0 for a in rec["test_accuracy"]), f"round {t}: accuracy")
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == rounds, f"summary.csv has {len(rows)} rows, want {rounds}")
    for row, rec in zip(rows, records):
        require(
            int(row["uplink_bits"]) == rec["uplink_bits"]
            and int(row["downlink_bits"]) == rec["downlink_bits"],
            f"summary.csv disagrees with rounds.jsonl at round {rec['t']}",
        )
    ckpt = out_dir / "checkpoint.bin"
    require(ckpt.is_file() and ckpt.stat().st_size > 0, "checkpoint.bin missing or empty")
    up = sum(r["uplink_bits"] for r in records)
    down = sum(r["downlink_bits"] for r in records)
    said = re.search(r"uplink (\d+) bits, downlink (\d+) bits", stdout)
    require(said is not None, "cefgl run printed no bit totals")
    require((int(said[1]), int(said[2])) == (up, down), "printed bit totals disagree")
    final = records[-1]["test_accuracy"]
    return RunOutputs(
        digest=hashlib.sha256(raw).hexdigest(),
        wire_bits=up + down,
        final_acc=sum(final) / len(final),
        records=records,
    )


@dataclass
class Op:
    """One ``cefgl run``: its exit, wall time and, if it succeeded, outputs."""

    exit_code: int
    wall_s: float
    message: str  # last stderr line of a failed run
    outputs: Optional[RunOutputs] = None
    peak_rss_mb: Optional[float] = None
    problem: str = ""  # why the outputs failed their checks


def _finish_op(op: Op, out_dir: Path, rounds: int, stdout: str) -> Op:
    if op.exit_code == 0:
        try:
            op.outputs = check_outputs(out_dir, rounds, stdout)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            op.problem = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    return op


def _last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def subprocess_op(cfg_path: Path, out_dir: Path, rounds: int) -> Op:
    """``cefgl run`` in a fresh interpreter; peak RSS is that child's own."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "cefgl.cli", "run", str(cfg_path), "--out", str(out_dir)]
    log_out, log_err = out_dir.with_suffix(".out"), out_dir.with_suffix(".err")
    with open(log_out, "wb") as fo, open(log_err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fo, stderr=fe)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = log_out.read_text(), log_err.read_text()
    log_out.unlink()
    log_err.unlink()
    message = _last_line(stderr) if proc.returncode else ""
    op = Op(proc.returncode, wall, message, peak_rss_mb=usage.ru_maxrss / 1024.0)  # KiB on Linux
    return _finish_op(op, out_dir, rounds, stdout)


def inprocess_op(cfg_path: Path, out_dir: Path, rounds: int) -> Op:
    """``cefgl run`` through ``cli.main`` in this process."""
    from cefgl import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(["run", str(cfg_path), "--out", str(out_dir)])
        wall = time.perf_counter() - start
    op = Op(code, wall, _last_line(err.getvalue()) if code else "")
    return _finish_op(op, out_dir, rounds, out.getvalue())


def closed_loop(run_one, seconds: float) -> list:
    """Call ``run_one(i)`` back to back; start another call only while it is
    expected to end within ``seconds``.  At least one runs."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(run_one(len(results)))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def consistency(ops: List[Op]) -> List[str]:
    """Repeats of one workload must end the same way with the same outputs."""
    problems = [f"run {i}: {op.problem}" for i, op in enumerate(ops) if op.problem]
    ends = {(op.exit_code, op.message) for op in ops}
    if len(ends) > 1:
        problems.append(f"repeats ended differently: {sorted(ends)}")
    done = [op.outputs for op in ops if op.outputs is not None]
    if len({(o.digest, o.wire_bits) for o in done}) > 1:
        problems.append("repeats wrote different rounds.jsonl or wire bits")
    return problems


# ---------------------------------------------------------------------------
# End-to-end measurement


def time_setup(cfg_path: Path) -> Tuple[float, str]:
    from cefgl import harness

    cfg = harness.parse_config(cfg_path)
    gc.collect()
    start = time.perf_counter()
    _, clients, fingerprint = harness.build_simulation(cfg)
    elapsed = time.perf_counter() - start
    require(len(clients) == cfg.run.clients, "build_simulation: wrong client count")
    return elapsed, fingerprint


def rounds_of(cfg_path: Path) -> int:
    from cefgl import harness

    return harness.parse_config(cfg_path).run.rounds


def measure_end_to_end(
    cfg_path: Path, work: Path, seconds: float
) -> Tuple[dict, List[Op], List[str]]:
    rounds = rounds_of(cfg_path)
    setups: List[Tuple[float, str]] = []

    def setups_then_run(i: int) -> Op:
        began = time.perf_counter()
        setups.append(time_setup(cfg_path))
        while time.perf_counter() - began < SETUP_BATCH_S:
            setups.append(time_setup(cfg_path))
        gc.collect()
        return subprocess_op(cfg_path, work / f"run{i}", rounds)

    ops = closed_loop(setups_then_run, seconds)
    problems = consistency(ops)
    if len({fp for _, fp in setups}) != 1:
        problems.append("build_simulation partitions differ between repeats")
    metrics = {
        "run_s": (statistics.median(op.wall_s for op in ops), "s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (statistics.median(op.peak_rss_mb for op in ops), "MB"),
    }
    done = [op.outputs for op in ops if op.outputs is not None]
    if done:
        metrics["wire_bits"] = (done[0].wire_bits, "bit")
        metrics["final_acc"] = (done[0].final_acc, "ratio")
    metrics["fail_ratio"] = (sum(op.exit_code != 0 for op in ops) / len(ops), "ratio")
    return metrics, ops, problems


# ---------------------------------------------------------------------------
# Traced measurement


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _blob_len(payload) -> int:
    return len(getattr(payload, "blob", payload))


WORK = {
    "gnn.loss_and_grad": lambda a, k, r: len(_arg(a, k, 1, "batch")),
    "gnn.evaluate": lambda a, k, r: len(_arg(a, k, 1, "data")),
    "compress.encode_payload": lambda a, k, r: len(r.blob),
    "compress.decode_payload": lambda a, k, r: _blob_len(_arg(a, k, 0, "payload")),
    "graphdata.load_tu_dataset": lambda a, k, r: len(r),
    "harness.emit_metrics": lambda a, k, r: sum(
        (Path(r) / f).stat().st_size for f in ("rounds.jsonl", "summary.csv")
    ),
    "harness.save_checkpoint": lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")),
}


def layer_metrics(
    stats: dict, wall: float, records: Optional[List[dict]]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run, named ``<layer>.<function>.<qty>``."""

    def st(name: str) -> FnStats:
        return stats.get(name, FnStats())

    m: Dict[str, Tuple[float, str]] = {}
    for fn in ("gnn.loss_and_grad", "gnn.evaluate"):
        s = st(fn)
        m[f"{fn}.calls"] = (s.calls, "count")
        m[f"{fn}.graphs"] = (s.work, "count")
        m[f"{fn}.self_s"] = (s.self_s, "s")
        m[f"{fn}.us_per_graph"] = (1e6 * s.total_s / s.work if s.work else 0.0, "us")
    m["gnn.combine.self_s"] = (st("gnn.combine").self_s, "s")
    for fn in ("compress.encode_payload", "compress.decode_payload"):
        s = st(fn)
        m[f"{fn}.calls"] = (s.calls, "count")
        m[f"{fn}.bytes"] = (s.work, "B")
        m[f"{fn}.self_s"] = (s.self_s, "s")
        m[f"{fn}.mb_per_s"] = (s.work / 1e6 / s.total_s if s.total_s else 0.0, "MB/s")
    if records is not None:
        aggregated = sum(len(r["participants"]) for r in records if r["communicated"])
        encoded = st("fedcore.client_uplink").calls
        m["compress.uplink_useful_ratio"] = (aggregated / encoded if encoded else 0.0, "ratio")
    for fn in ("linalg.svd", "linalg.lowrank_truncate", "linalg.weighted_sum"):
        m[f"{fn}.calls"] = (st(fn).calls, "count")
        m[f"{fn}.self_s"] = (st(fn).self_s, "s")
    m["graphdata.load_tu_dataset.self_s"] = (st("graphdata.load_tu_dataset").self_s, "s")
    m["graphdata.load_tu_dataset.graphs"] = (st("graphdata.load_tu_dataset").work, "count")
    for fn in ("synth_generate", "partition_clients", "split_dataset"):
        m[f"graphdata.{fn}.self_s"] = (st(f"graphdata.{fn}").self_s, "s")
    for fn in ("local_train_round", "finetune_sparse", "client_uplink"):
        m[f"fedcore.{fn}.total_s"] = (st(f"fedcore.{fn}").total_s, "s")
    for fn in ("update_correction", "apply_sparsifier"):
        m[f"fedcore.{fn}.self_s"] = (st(f"fedcore.{fn}").self_s, "s")
    # The round pipeline (run_round, _aggregate, _round_metrics) is reached
    # through names no wrapper sees, so its own time is the run span's self.
    m["fedcore.glue_s"] = (st("harness.run_and_persist").self_s, "s")
    m["harness.build_simulation.total_s"] = (st("harness.build_simulation").total_s, "s")
    for fn in ("emit_metrics", "save_checkpoint"):
        m[f"harness.{fn}.self_s"] = (st(f"harness.{fn}").self_s, "s")
        m[f"harness.{fn}.bytes"] = (st(f"harness.{fn}").work, "B")
    m["cli.main.self_s"] = (st("cli.main").self_s, "s")
    for layer in LAYERS[1:]:  # cli has one function, reported above
        own = sum(s.self_s for name, s in stats.items() if name.startswith(layer + "."))
        m[f"{layer}.self_s"] = (own, "s")
    # Time no layer function owns: the entry spans' self time plus time
    # outside the root span.
    attributed = sum(s.self_s for name, s in stats.items() if name not in ENTRY_SPANS)
    m["trace.uncovered_share"] = ((wall - attributed) / wall, "ratio")
    return m


def measure_traced(
    wl: Workload, cfg_path: Path, work: Path, seconds: float
) -> Tuple[dict, List[Op], List[str], dict]:
    modules = [importlib.import_module(f"cefgl.{layer}") for layer in LAYERS]
    rounds = rounds_of(cfg_path)
    per_op: List[dict] = []
    tracers: List[Tracer] = []

    def traced_op(i: int) -> Op:
        with Tracer() as tracer:
            tracer.install(modules, WORK)
            op = inprocess_op(cfg_path, work / f"traced{i}", rounds)
        tracers.append(tracer)
        records = op.outputs.records if op.outputs else None
        per_op.append(layer_metrics(tracer.stats, op.wall_s, records))
        return op

    def pair(i: int) -> Tuple[Op, Op]:
        # Alternate which side goes first so neither always pays warm-up.
        if i % 2:
            plain = inprocess_op(cfg_path, work / f"plain{i}", rounds)
            return traced_op(i), plain
        traced = traced_op(i)
        return traced, inprocess_op(cfg_path, work / f"plain{i}", rounds)

    pairs = closed_loop(pair, seconds)
    ops = [op for both in pairs for op in both]
    problems = consistency(ops)
    seen = tracers[0].stats
    unseen = [name for name in wl.expect_calls if name not in seen or not seen[name].calls]
    if unseen:
        raise SystemExit(f"perfbench: traced run of {wl.name} never called {', '.join(unseen)}")
    metrics = {
        name: (statistics.median(m[name][0] for m in per_op), unit)
        for name, (_, unit) in per_op[0].items()
    }
    overhead = statistics.median(t.wall_s - p.wall_s for t, p in pairs)
    metrics["trace.overhead_s"] = (overhead, "s")
    table = {
        name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s, "work": s.work}
        for name, s in sorted(tracers[0].stats.items(), key=lambda kv: -kv[1].self_s)
        if s.calls
    }
    return metrics, ops, problems, table


# ---------------------------------------------------------------------------
# Manifest and reporting


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn a termination request into SystemExit, so that the running child
    # is killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    wl = WORKLOADS[args.workload]
    info = manifest(wl.name, args.seed, args.trace)
    print("manifest " + json.dumps(info, sort_keys=True), flush=True)
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg_path = work / "experiment.cfg"
        config = wl.make(args.seed, work)  # untimed
        cfg_path.write_text(config)
        table = None
        if args.trace:
            metrics, ops, problems, table = measure_traced(wl, cfg_path, work, args.seconds)
        else:
            metrics, ops, problems = measure_end_to_end(cfg_path, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.exit_code != 0]
    done = [op.outputs for op in ops if op.outputs is not None]
    print(f"{wl.name} seed {args.seed}: {len(ops)} runs, {len(failed)} failed")
    for op in failed[:1]:
        print(f"  failed run: exit {op.exit_code}: {op.message}")
    if done:
        print(f"  rounds.jsonl sha256 {done[0].digest}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if table:
        print(f"  {'function':36} {'calls':>8} {'self_s':>10} {'total_s':>10}")
        for name, row in table.items():
            print(f"  {name:36} {row['calls']:8d} {row['self_s']:10.4f} {row['total_s']:10.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:>16.6g} {unit}")

    record = {
        "manifest": info,
        "workload_why": wl.why,
        "config": config,
        "rounds_jsonl_sha256": done[0].digest if done else None,
        "runs": [
            {"exit_code": op.exit_code, "wall_s": op.wall_s, "peak_rss_mb": op.peak_rss_mb,
             "message": op.message, "problem": op.problem}
            for op in ops
        ],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "functions": table,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    reported = metrics if args.trace else {k: v for k, v in metrics.items() if k in END_TO_END}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
