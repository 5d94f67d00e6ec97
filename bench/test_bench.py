"""Self-checks of the benchmark. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Hook, Tracer  # noqa: E402

COUNT_METRICS = [name for name, (unit, _) in run.LAYER_METRICS.items() if unit != "s"]


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _traced_counts(cli, workload: run.Workload, workdir: Path) -> dict:
    prepared = run.prepare(cli, workload, run.DEFAULT_SEED, workdir)
    measured = run.measure(cli, workload, prepared, seconds=0, trace=True)
    assert not prepared.problems
    assert run._failed(measured, prepared.reference) == 0
    assert not measured.missing
    return {name: measured.layer_rows[0][name] for name in COUNT_METRICS}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_count_metrics_repeat_exactly(cli, name, tmp_path):
    workload = run.WORKLOADS[name]
    if workload.threads > len(os.sched_getaffinity(0)):
        pytest.skip("fewer CPUs than pool workers")
    first = _traced_counts(cli, workload, tmp_path)
    second = _traced_counts(cli, workload, tmp_path)
    assert first == second
    assert first["scalars.stdout_bytes"] > 0


def test_missing_targets_are_reported_not_raised(cli):
    original = cli.main
    hooks = (
        Hook("gone.function", "gramexpect.montecarlo", "_no_such_helper"),
        Hook("gone.class", "gramexpect.series", "NoSuchSeries.exp"),
        Hook("gone.module", "gramexpect.no_such_module", "anything"),
        Hook("cli", "gramexpect.cli", "main"),
    )
    with Tracer().installed(hooks) as missing:
        assert missing == {"gone.function", "gone.class", "gone.module"}
        assert cli.main is not original
    assert cli.main is original
    assert run.missing_metrics({"montecarlo.gram"}) == {"montecarlo.gram_s"}


def test_self_time_excludes_child_spans(monkeypatch):
    module = types.ModuleType("fake_layers")
    exec(
        "def inner():\n    return sum(range(20_000))\n\n"
        "def outer():\n    return inner() + inner()\n",
        vars(module),
    )
    outer = module.outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    tracer = Tracer()
    with tracer.installed((Hook("outer", "fake_layers", "outer"), Hook("inner", "fake_layers", "inner"))):
        module.outer()
    snap = tracer.snapshot()
    assert snap["calls"]["inner"] == 2
    assert snap["self_s"]["inner"] == pytest.approx(snap["total_s"]["inner"])
    assert snap["self_s"]["outer"] + snap["total_s"]["inner"] == pytest.approx(snap["total_s"]["outer"])
    assert module.outer is outer


def test_seed_reaches_every_workload(tmp_path):
    assert run._argv_for(run.WORKLOADS["simulate-det"], 7, None)[-2:] == ["--seed", "7"]
    assert "--paper" in run._argv_for(run.WORKLOADS["expect-deep"], run.DEFAULT_SEED, None)
    model = checks.seeded_model(7)
    assert model == checks.seeded_model(7)
    probs = [Fraction(p) for p in model["probs"]]
    assert sum(probs) == 1 and max(p.denominator for p in probs) == 8
    assert len({tuple(checks.seeded_model(s)["probs"]) for s in range(20)}) > 1


def test_manifest_names_what_the_runner_reports():
    manifest = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in manifest["per_layer"]] == [*run.LAYER_METRICS, *run.OVERHEAD_METRICS]
    invocation = run.Invocation(wall_s=0.5, cpu_s=0.5, code=0, stdout="")
    measured = run.Run(invocation, [invocation], [], [], set())
    reported = run.end_to_end(run.WORKLOADS["simulate-det"], measured, [0.1], 1024)
    assert [m["name"] for m in manifest["end_to_end"]] == list(reported)
    assert all(entry["unit"] == m["unit"] for m in manifest["end_to_end"] for entry in [reported[m["name"]]])


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_independent_reference_matches_paper_values():
    dets, perms = checks.exact_terms(checks.PAPER_ELL, checks.PAPER_PROBS, 3)
    assert dets == [1, Fraction(565, 16), Fraction(6775, 16), Fraction(42375, 16)]
    assert perms == [1, Fraction(565, 16), Fraction(265025, 128), Fraction(362772375, 2048)]
