"""Smoke test of the benchmark on a tiny desk scenario, one repetition.

    python3 -m pytest bench -q
"""

import json
from pathlib import Path
from time import perf_counter

import run
from scenarios import Scenario
from spans import Tracer

TINY = Scenario("desk-gemm-tiny", "desk", "gemm", (16, 16, 16), 1)
CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_are_the_contracts():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)


def test_untraced_run_emits_every_end_to_end_metric():
    result, record = run.measure(TINY, seconds=0, min_rounds=1)
    assert result["correct"], record["errors"]
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["backend"] in ("python", "numba")


def test_traced_run_keeps_the_digest_and_emits_every_layer_metric():
    plain, plain_record = run.measure(TINY, seconds=0, min_rounds=1)
    traced, record, spans = run.measure_traced(TINY, seconds=0)
    assert traced["correct"], record["errors"]
    assert record["digest"] == plain_record["digest"]
    assert _units(traced) == {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {s[1] for s in spans} >= {
        "kernels.gen", "kernels.run_plan", "alloc.das_malloc",
        "remap.resolve_array", "engine.make_chunk", "engine.run_packed",
        "stepper.step_segment", "report.to_json_str", "report.markdown_table"}
    m = {name: v["value"] for name, v in traced["metrics"].items()}
    assert m["sim.das.cycles"] == record["sim"]["sim.das.cycles"] > 0
    assert abs(sum(m[f"remap.das.level{lv}_share"] for lv in range(4)) - 1) < 1e-12


def test_tracing_is_removed_after_the_block():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in run.trace_points()]
    with Tracer().installed(run.trace_points()):
        assert run.plan.run_packed is not originals[6]
    assert [owner.__dict__[attr] for owner, attr, _, _ in run.trace_points()] == originals


def test_self_time_excludes_child_spans():
    tr = Tracer()

    def busy(seconds):
        end = perf_counter() + seconds
        while perf_counter() < end:
            pass

    def outer():
        busy(0.01)
        tr.call("inner", busy, 0.02)

    tr.call("outer", outer)
    tot = tr.totals(0)
    assert tot["outer"]["incl_s"] >= 0.03
    assert 0.01 <= tot["outer"]["self_s"] < 0.02 <= tot["inner"]["self_s"]
    assert abs(tot["outer"]["incl_s"] - tot["outer"]["self_s"]
               - tot["inner"]["incl_s"]) < 1e-9
