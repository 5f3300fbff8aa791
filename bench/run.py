"""dasim benchmark: the host cost of answering DAS versus interleaving.

One workload per invocation, answered repeatedly in one single-threaded
process (a closed loop with one client):

    python3 bench/run.py --workload tp-gemm-64 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, untraced, with host times
scaled to a reference host speed (see ``measure``). ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics; spans are taken at the module attributes dasim's callers look
up. Every repetition is checked (cycle conservation, op counts against
the closed forms, equal instruction totals under both schemes, one
report digest for the whole run). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a record of the run goes to ``bench/out/``.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import scenarios
from scenarios import SCHEMES, WORKLOADS, Scenario
from spans import Tracer

from dasim import _stepper, engine, report  # noqa: E402  (after scenarios sets the path)
from dasim.kernels import gemm, gemv, plan  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_ROUNDS = 5          # set-up processes and answers per run, whatever --seconds says
REF_PASS_S = 1e-3       # host seconds per reference pass that host times are scaled to
CAL_S = 0.25            # seconds of reference passes between rounds
PHASES = ("config", "compute", "reduce")
STALLS = (("lsu", "lsu_stall"), ("raw", "raw_stall"), ("wfi", "wfi_stall"),
          ("ins", "ins_stall"))
SEED_NOTE = "recorded only: the kernels' inputs depend on shape, not on the seed"

END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_instr_per_s": "instr/s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "stepper.s": "s", "stepper.calls": "count", "stepper.ns_per_op": "ns",
    "stepper.ns_per_pe_cycle": "ns",
    "engine.run_s": "s", "engine.self_s": "s", "engine.pack_s": "s",
    "kernels.gen_s": "s", "kernels.self_s": "s", "kernels.ops": "count",
    "kernels.ns_per_op": "ns",
    "alloc.malloc_calls": "count", "alloc.malloc_s": "s",
    "remap.resolve_s": "s", "remap.addrs": "count",
    **{f"remap.{s}.level{lv}_share": "share" for s in SCHEMES for lv in range(4)},
    "report.s": "s", "report.json_bytes": "bytes",
    **{f"sim.{s}.cycles": "cycles" for s in SCHEMES},
    **{f"sim.{s}.ipc": "instr/cycle" for s in SCHEMES},
    "sim.speedup": "x",
    **{f"sim.{s}.{b}_share": "share" for s in SCHEMES for b, _ in STALLS},
    **{f"sim.{s}.{ph}.cycles": "cycles" for s in SCHEMES for ph in PHASES},
    "sim.digest_matches_recorded": "count",
    "trace.overhead_s": "s",
}


def trace_points() -> list:
    """(owner, attribute, span name, work count) for every traced call."""
    n_addrs = lambda topo, regions, addrs: len(addrs)  # noqa: E731
    return [
        (gemm, "gen_gemm", "kernels.gen", None),
        (gemv, "gen_gemv", "kernels.gen", None),
        (plan, "run_plan", "kernels.run_plan", None),
        (plan, "das_malloc", "alloc.das_malloc", None),
        (plan, "resolve_array", "remap.resolve_array", n_addrs),
        (plan, "make_chunk", "engine.make_chunk", None),
        (plan, "run_packed", "engine.run_packed", None),
        (engine, "step_segment", "stepper.step_segment", None),
        *((report.SimReport, m, f"report.{m}", None) for m in
          ("check_conservation", "to_json", "to_json_str", "stage_rows")),
        (report, "markdown_table", "report.markdown_table", None),
        (report, "stacked_bar_rows", "report.stacked_bar_rows", None),
    ]


@dataclass
class Answer:
    """One answer to a workload: both schemes planned, simulated, reported."""

    wall_s: float
    sim_s: float            # host seconds inside run_plan, both schemes
    plans: dict
    reports: dict
    digest: str             # SHA-256 of both reports' JSON
    json_bytes: int
    problems: list          # output checks that failed

    @property
    def instr(self) -> int:
        return sum(int(r.per_pe["instr_issued"].sum()) for r in self.reports.values())

    @property
    def ops(self) -> int:
        """Packed op records of both plans."""
        return sum(int(ch.n_ops.sum()) for p in self.plans.values()
                   for ph in p.phases for ch in ph.chunks)


def answer(scn: Scenario) -> Answer:
    t0 = perf_counter()
    plans = {s: scenarios.build_plan(scn, s) for s in SCHEMES}
    reports, sim_s = {}, 0.0
    for s in SCHEMES:
        t = perf_counter()
        reports[s] = plan.run_plan(plans[s])
        sim_s += perf_counter() - t
    das, il = reports["das"], reports["interleaved"]
    das.speedup = il.cycles / das.cycles      # labelled as engine.run_pair does
    das.baseline = "interleaved"
    problems = check_outputs(plans, reports)
    texts = [das.to_json_str(), il.to_json_str()]
    report.markdown_table([das, il])
    report.stacked_bar_rows([das, il])
    wall_s = perf_counter() - t0
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return Answer(wall_s, sim_s, plans, reports, digest,
                  sum(len(t) for t in texts), problems)


def check_outputs(plans: dict, reports: dict) -> list:
    problems = []
    for s in SCHEMES:
        try:
            reports[s].check_conservation()
        except AssertionError as e:
            problems.append(f"{s}: {e}")
        if plans[s].counted_ops != plans[s].expected_ops:
            problems.append(f"{s}: op counts {plans[s].counted_ops} != "
                            f"closed form {plans[s].expected_ops}")
    issued = {s: int(reports[s].per_pe["instr_issued"].sum()) for s in SCHEMES}
    if len(set(issued.values())) != 1:
        problems.append(f"schemes issue different instruction totals: {issued}")
    return problems


class Run:
    """Attempts of one workload: counts failures, pins one report digest."""

    def __init__(self, scn: Scenario):
        self.scn = scn
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)
        print(f"FAILED: {why}", file=sys.stderr)

    def attempt(self, fn, *args):
        """One scenario run, ``fn(*args)`` returning an Answer; None if it raised."""
        gc.collect()
        self.attempted += 1
        try:
            ans = fn(*args)
        except Exception:  # a failed scenario run is counted, the run goes on
            self._fail(traceback.format_exc())
            return None
        problems = list(ans.problems)
        if self.digest is None:
            self.digest = ans.digest
        elif ans.digest != self.digest:
            problems.append(f"report digest {ans.digest} differs from the "
                            f"run's first {self.digest}")
        if problems:
            self._fail("; ".join(problems))
        return ans

    def setup(self):
        """Set-up seconds of one fresh process; None if it failed."""
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"),
                 json.dumps(self.scn.to_json())],
                capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:
            self._fail("set-up probe timed out")
            return None
        if proc.returncode != 0:
            self._fail(f"set-up probe exited {proc.returncode}: {proc.stderr}")
            return None
        out = json.loads(proc.stdout.splitlines()[-1])
        if not out["ops_ok"]:
            self._fail("set-up probe: op counts differ from the closed forms")
        return out["setup_s"]

    def result(self, metrics: dict, units: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def reference_pass_s(seconds: float = CAL_S) -> float:
    """Host seconds per pass of a fixed loop, timed for about ``seconds``.

    The loop does what the pure-Python stepper spends its time on:
    bytecode plus numpy scalar reads and writes. Other tenants of a
    shared host slow it and the benchmark alike, so scaling host times
    by ``REF_PASS_S`` over it, measured around the same round, takes
    their load out of run-to-run comparisons.
    """
    ready = np.zeros((64, 4096), dtype=np.int64)
    arrival = np.arange(4096, dtype=np.int64)
    passes = 0
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        for i in range(2000):
            pe, j = i & 63, (i * 7) & 4095
            v = ready[pe, j]
            if arrival[j] > v:
                ready[pe, j] = v + arrival[j]
        passes += 1
    return (perf_counter() - t0) / passes


def measure(scn: Scenario, seconds: float, min_rounds: int = MIN_ROUNDS) -> tuple:
    """End-to-end metrics, untraced: (result, record).

    Each round starts one fresh set-up process and answers the workload
    once, so both samples spread over the whole run. Reference passes
    before and after every round give the host's speed during it; host
    times are reported at ``REF_PASS_S`` per pass, and the record keeps
    them as measured too.
    """
    run = Run(scn)
    deadline = perf_counter() + seconds
    rounds, sim = [], None      # (set-up s, answer s, instr/s) as measured
    passes = [reference_pass_s()]
    while len(rounds) < min_rounds or perf_counter() < deadline:
        setup_s = run.setup()
        ans = run.attempt(answer, scn)
        if ans is None:
            rounds.append((setup_s, None, None))
        else:
            rounds.append((setup_s, ans.wall_s, ans.instr / ans.sim_s))
            sim = sim or sim_metrics(scn, ans)
        del ans
        passes.append(reference_pass_s())
    scale = [2 * REF_PASS_S / (a + b) for a, b in zip(passes, passes[1:])]
    setups = [t * k for (t, _, _), k in zip(rounds, scale) if t is not None]
    walls = [w * k for (_, w, _), k in zip(rounds, scale) if w is not None]
    rates = [r / k for (_, _, r), k in zip(rounds, scale) if r is not None]
    if not walls or not setups:
        raise SystemExit(f"no successful answer to {scn.name}:\n" + "\n".join(run.errors))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "sim_instr_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"samples": {"wall_s": walls, "setup_s": setups,
                          "sim_instr_per_s": rates},
              "measured": {"rounds": rounds, "reference_pass_s": passes},
              "sim": sim}
    return run.result(metrics, END_TO_END), _record(run, record)


def measure_traced(scn: Scenario, seconds: float, min_rounds: int = 1) -> tuple:
    """Per-layer metrics from alternating untraced and traced answers."""
    run = Run(scn)
    tracer = Tracer()
    deadline = perf_counter() + seconds
    plain_walls, traced_walls, layers, sim = [], [], [], None
    answers = 0
    while answers < 2 * min_rounds or perf_counter() < deadline:
        answers += 1
        if answers % 2:
            ans = run.attempt(answer, scn)
            if ans is not None:
                plain_walls.append(ans.wall_s)
                sim = sim or sim_metrics(scn, ans)
        else:
            with tracer.installed(trace_points()):
                ans = run.attempt(tracer.call, "bench.answer", answer, scn)
            if ans is not None:
                traced_walls.append(ans.wall_s)
                layers.append(layer_metrics(tracer.totals(tracer.rep), ans))
            tracer.rep += 1
        del ans
    if not plain_walls or not traced_walls:
        raise SystemExit(f"no successful answer to {scn.name}:\n" + "\n".join(run.errors))
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics.update(sim)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    record = {"samples": {"plain_wall_s": plain_walls,
                          "traced_wall_s": traced_walls, "layers": layers},
              "sim": sim}
    return run.result(metrics, PER_LAYER), _record(run, record), tracer.spans


def layer_metrics(tot: dict, ans: Answer) -> dict:
    """Per-layer figures of one traced answer from its span totals."""
    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def layer_self(layer):
        return sum(t["self_s"] for n, t in tot.items() if n.startswith(layer + "."))

    ops = ans.ops
    pe_cycles = sum(r.n_pe * r.cycles for r in ans.reports.values())
    stepper_s = get("stepper.step_segment", "incl_s")
    gen_s = get("kernels.gen", "incl_s")
    return {
        "stepper.s": stepper_s,
        "stepper.calls": get("stepper.step_segment", "calls"),
        "stepper.ns_per_op": stepper_s * 1e9 / ops,
        "stepper.ns_per_pe_cycle": stepper_s * 1e9 / pe_cycles,
        "engine.run_s": get("engine.run_packed", "incl_s"),
        "engine.self_s": get("engine.run_packed", "self_s"),
        "engine.pack_s": get("engine.make_chunk", "incl_s"),
        "kernels.gen_s": gen_s,
        "kernels.self_s": layer_self("kernels"),
        "kernels.ops": ops,
        "kernels.ns_per_op": gen_s * 1e9 / ops,
        "alloc.malloc_calls": get("alloc.das_malloc", "calls"),
        "alloc.malloc_s": get("alloc.das_malloc", "incl_s"),
        "remap.resolve_s": get("remap.resolve_array", "incl_s"),
        "remap.addrs": get("remap.resolve_array", "count"),
        "report.s": layer_self("report"),
        "report.json_bytes": ans.json_bytes,
    }


def sim_metrics(scn: Scenario, ans: Answer) -> dict:
    """The model's own outputs; exact, so they repeat across runs."""
    m = {"sim.speedup": ans.reports["das"].speedup,
         "sim.digest_matches_recorded": int(ans.digest == scn.recorded_digest)}
    for s, r in ans.reports.items():
        slots = r.n_pe * r.cycles
        m[f"sim.{s}.cycles"] = r.cycles
        m[f"sim.{s}.ipc"] = r.utilization
        for b, field in STALLS:
            m[f"sim.{s}.{b}_share"] = int(r.per_pe[field].sum()) / slots
        for ph in PHASES:
            m[f"sim.{s}.{ph}.cycles"] = sum(p.cycles for p in r.phases if p.name == ph)
        for lv, share in enumerate(level_shares(ans.plans[s])):
            m[f"remap.{s}.level{lv}_share"] = share
    return m


def level_shares(p) -> list:
    """Share of a plan's packed loads and stores at each hierarchy level."""
    counts = np.zeros(4, dtype=np.int64)
    for ph in p.phases:
        for ch in ph.chunks:
            kind = ch.cols["kind"]
            live = np.arange(kind.shape[1]) < ch.n_ops[:, None]
            mem = live & ((kind == plan.K_LOAD) | (kind == plan.K_STORE))
            counts += np.bincount(ch.cols["level"][mem], minlength=4)[:4]
    return (counts / max(1, counts.sum())).tolist()


def _record(run: Run, extra: dict) -> dict:
    scn = run.scn
    return {"workload": scn.to_json(),
            "backend": "numba" if _stepper.HAVE_NUMBA else "python",
            "digest": run.digest, "recorded_digest": scn.recorded_digest,
            "attempted": run.attempted, "failed": run.failed,
            "error_rate": run.failed / max(1, run.attempted),
            "errors": run.errors, **extra}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help=SEED_NOTE)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    scn = WORKLOADS[args.workload]
    if args.trace:
        result, record, spans = measure_traced(scn, args.seconds)
    else:
        result, record = measure(scn, args.seconds)
        spans = None
    record.update(seed=args.seed, seed_note=SEED_NOTE, seconds=args.seconds,
                  trace=args.trace, result=result)
    OUT.mkdir(exist_ok=True)
    stem = f"{scn.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["rep", "name", "start", "end", "parent", "count"],
             "spans": spans}))
    sim = record["sim"]
    print(f"{scn.name}: backend {record['backend']}, seed {args.seed} ({SEED_NOTE})")
    same = "matches" if sim["sim.digest_matches_recorded"] else "differs from"
    print(f"cycles das {sim['sim.das.cycles']} interleaved "
          f"{sim['sim.interleaved.cycles']} (recorded "
          f"{'/'.join(map(str, scn.recorded_cycles))}), digest {record['digest']}"
          f" ({same} recorded)")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
