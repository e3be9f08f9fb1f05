"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench -q``
from the repository root."""

from __future__ import annotations

import json
import types
from pathlib import Path

import numpy as np
import pytest

import run  # puts src/ on the path and pins BLAS threads
import spans
import workloads

run.import_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _toy_module(clock: FakeClock) -> types.ModuleType:
    mod = types.ModuleType("toy")

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        mod.leaf()
        mod.leaf()

    def outer():
        clock.now += 0.5
        mod.middle()
        _private()

    def _private():
        clock.now += 4.0

    def server_aggregate():  # on the skip list
        pass

    for fn in (leaf, middle, outer, _private, server_aggregate):
        fn.__module__ = "toy"
        setattr(mod, fn.__name__, fn)
    mod.imported = json.dumps  # defined elsewhere: not this layer's function
    return mod


def test_self_time_arithmetic_on_nested_calls():
    clock = FakeClock()
    mod = _toy_module(clock)
    originals = dict(vars(mod))
    with spans.Tracer(clock=clock) as tracer:
        tracer.install([mod], {"toy.leaf": lambda a, k, r: 3})
        mod.outer()
        assert set(tracer.stats) == {"toy.leaf", "toy.middle", "toy.outer"}
    st = tracer.stats
    assert (st["toy.leaf"].calls, st["toy.leaf"].total_s, st["toy.leaf"].self_s) == (2, 4.0, 4.0)
    assert st["toy.leaf"].work == 6
    assert (st["toy.middle"].total_s, st["toy.middle"].self_s) == (5.0, 1.0)
    # The untraced private helper's time stays with its traced caller.
    assert (st["toy.outer"].total_s, st["toy.outer"].self_s) == (9.5, 4.5)
    assert sum(s.self_s for s in st.values()) == st["toy.outer"].total_s
    for name, obj in originals.items():
        assert getattr(mod, name) is obj  # restored on exit


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    wrapped = tracer.wrap("toy.boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.stats["toy.boom"].calls == 1
    assert tracer.stats["toy.boom"].total_s == 1.0
    assert not tracer._stack


def test_fleet_dataset_round_trips_through_the_loader(tmp_path):
    graphs = workloads.fleet_graphs(seed=3, count=30)
    again = workloads.fleet_graphs(seed=3, count=30)
    assert all(
        a.edges == b.edges and a.label == b.label and np.array_equal(a.features, b.features)
        for a, b in zip(graphs, again)
    )
    workloads.write_tu(tmp_path, graphs)
    workloads.verify_tu(tmp_path, graphs)
    graphs[5].label = (graphs[5].label + 1) % 3
    with pytest.raises(AssertionError):
        workloads.verify_tu(tmp_path, graphs)


def test_defaults_is_the_empty_config_at_the_default_seed(tmp_path):
    make = workloads.WORKLOADS["defaults"].make
    assert make(workloads.DEFAULT_SEED, tmp_path) == ""
    assert "seeds.data = 8" in make(8, tmp_path)
    assert "seeds.coin" not in make(8, tmp_path)


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_brief_run_reports_every_named_metric(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    cfg = tmp_path / "experiment.cfg"
    # Three rounds reach a communicated round with the fixed coin.
    cfg.write_text(wl.make(workloads.DEFAULT_SEED, tmp_path) + "run.rounds = 3\n")

    metrics, ops, problems = run.measure_end_to_end(cfg, tmp_path, seconds=0)
    assert not problems and len(ops) == 1 and ops[0].exit_code == 0
    assert set(metrics) == set(run.END_TO_END) | {"final_acc", "fail_ratio"}
    reported = {k: u for k, (_, u) in metrics.items() if k in run.END_TO_END}
    assert reported == _units(SPEC["end_to_end"])

    metrics, ops, problems, _ = run.measure_traced(wl, cfg, tmp_path, seconds=0)
    assert not problems and len(ops) == 2
    assert {k: u for k, (_, u) in metrics.items()} == _units(SPEC["per_layer"])


def test_spec_lists_the_workloads_the_benchmark_knows():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert Path(run.__file__).parent.name in SPEC["paths"]
