#!/usr/bin/env python3
"""Benchmark of the `circulant4 verify` path: RunConfig -> run_verify -> report_json / report_to_csv.

    python3 verifybench/run.py --workload seeds_heavy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The workload's config (see workloads.py) takes `rng_seed` from `--seed`.
One client calls `run_verify` plus the configured serialiser back to back
(closed loop) for `--seconds`, and every call is checked against the
reference in workloads.py.  BLAS/OpenMP threads are capped at one, for the
measuring process and the set-up interpreters, before numpy is imported:
the verify path works on 4x4 arrays that BLAS does not split, and with two
threads an idle OpenBLAS worker spins inside the set-up interpreters (their
CPU seconds read 0.33 s against 0.20 s wall), by an amount that depends on
whether the host has a CPU free.

`--trace 0` prints the end-to-end metrics.  Their times are CPU seconds
normalised to a reference host speed, not wall seconds.  The verify path is
pure computation, and on a few vCPUs of a shared host wall time mostly
measures how much of the CPU other processes take: with two busy loops
beside it on a 2-vCPU machine, seeds_heavy's wall-clock records per second
halved.  The host's own speed also switches, for seconds to minutes at a
time, between a fast state and one about 1.7 times slower, which moves CPU
seconds as much; across five quiet 30 s control_csv runs the median call's
CPU seconds spread by 40% (quartiles over median).  So reference_work(), a
fixed computation made of the verify path's kinds of numpy calls but
independent of the program, is timed around every measured sample.  Each
verify call's CPU seconds are scaled by REFERENCE_NOMINAL_S over the mean
reference time of the gaps before and after it; norm_records_per_cpu_s is
the records per call over the lower quartile of these, that is records per
CPU second on a host where the reference takes REFERENCE_NOMINAL_S.  The
lower quartile, not the median, because interference that the reference
around a call does not see mostly slows the call: over ten control_csv runs
the lower quartile spread by 3.3% and the median by 8.9%.  setup_s is the
median of fresh interpreters' CPU seconds, each scaled the same way.  Over
ten runs per workload the two spread by 3.1-5.9% and 4.3-6.5%; with the two
busy loops beside control_csv they moved by 7-10% and 10-12%, where its
wall-clock records per second halved.  The raw records per CPU second,
the wall-clock records_per_s, the median and tail call seconds and the
failed share are printed as well, without a bound.  `--trace 1` alternates
untraced calls with traced ones (spans.py) and prints the per-layer
metrics.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give each metric
with its unit and base, the generated config and the machine facts.  The
same, with every call's time, is written to `.verifybench_out/` in the
checkout, together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".verifybench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed per run for setup_s.
SETUP_REPEATS = 15
CONFIG_PARSE_REPEATS = 21
TAIL_BEYOND = 10

# Fastest CPU seconds of reference_work() on a 2-vCPU Xeon virtual machine
# (Python 3.11, numpy 2.4): the host speed the bounded metrics are scaled to.
REFERENCE_NOMINAL_S = 0.021
# reference_work() runs this often in each gap between calls; the gap's fastest counts.
REFERENCE_REPEATS = 2

END_TO_END = {
    "norm_records_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "fields.eval_jet.calls": "count",
    "fields.eval_jet.us_per_call": "us",
    "fields.eval_jet.distinct_ratio": "ratio",
    "fields.parallel_residual.us_per_call": "us",
    "curvature.riemann_core.calls": "count",
    "curvature.riemann_core.us_per_call": "us",
    "curvature.riemann_core.distinct_ratio": "ratio",
    "curvature.christoffel_core.calls": "count",
    "curvature.q_section_curvatures.self_us": "us",
    "curvature.identity_suite.self_us": "us",
    "curvature.einsum.calls": "count",
    "curvature.linalg_inv.calls": "count",
    "curvature.nabla_q_residual.us_per_call": "us",
    "curvature.symmetry_residuals.us_per_call": "us",
    "frames.spectral_frame.us_per_call": "us",
    "frames.verify_frame.us_per_call": "us",
    "reporting.serialize_s": "s",
    "reporting.report_bytes": "bytes",
    "reporting.run_verify.self_s": "s",
    "reporting.config_parse_s": "s",
    "curvature.random_qbase_seeds.accept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

SETUP_SNIPPET = (
    "import json, sys\n"
    "import circulant4\n"
    "from circulant4.reporting import RunConfig\n"
    "RunConfig(json.loads(sys.argv[1]))\n"
)


def cap_threads() -> Dict[str, int]:
    """Cap BLAS/OpenMP threads at one; call before importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: 1 for var in THREAD_VARS}


def import_program() -> None:
    """Put the checkout's `src/` first on the path and check circulant4 comes from it."""
    if not (SRC / "circulant4" / "__init__.py").is_file():
        raise SystemExit(f"verifybench: no circulant4 sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import circulant4

    if not Path(circulant4.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"verifybench: circulant4 imported from {circulant4.__file__}, not {SRC}")


def machine_facts(caps: Dict[str, int]) -> Dict[str, Any]:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": caps,
    }


def tail(durations: List[float]) -> Dict[str, Any]:
    """Highest percentile with at least TAIL_BEYOND calls beyond it (the maximum if too few calls)."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n, "beyond": n - rank, "calls": n}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class SetupTimer:
    """CPU and wall seconds for fresh interpreters to import circulant4 and build the RunConfig.

    The samples are taken between verify calls, spread over the run, so that
    a slow spell of the machine does not cover all of them.  Each sample's
    CPU seconds are also normalised, like a verify call's, by reference_work()
    timed just before and just after it.
    """

    def __init__(self, raw: Dict[str, Any]) -> None:
        self._cmd = [sys.executable, "-c", SETUP_SNIPPET, json.dumps(raw)]
        self._env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cpu_s: List[float] = []
        self.wall_s: List[float] = []
        self.normalised_cpu_s: List[float] = []
        self._time()  # warm-up: fills the file cache and writes the bytecode cache

    def _time(self) -> Tuple[float, float]:
        start_cpu = _children_cpu_s()
        start = time.perf_counter()
        # No timeout: with one, the wait polls at up to 50 ms intervals and
        # rounds every time up to that grain.
        subprocess.run(self._cmd, env=self._env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return _children_cpu_s() - start_cpu, time.perf_counter() - start

    def sample(self) -> None:
        """Take one more sample unless SETUP_REPEATS are taken."""
        if len(self.cpu_s) < SETUP_REPEATS:
            before = reference_work()
            cpu, wall = self._time()
            after = reference_work()
            self.cpu_s.append(cpu)
            self.wall_s.append(wall)
            self.normalised_cpu_s.append(cpu * REFERENCE_NOMINAL_S / (0.5 * (before + after)))


class Calls:
    """Outcome of the closed loop: per-call times, failures and traced call ids."""

    def __init__(self) -> None:
        self.untraced_s: List[float] = []
        self.untraced_cpu_s: List[float] = []
        self.traced_s: List[float] = []
        self.traced_cpu_s: List[float] = []
        self.gap_reference_s: List[float] = []
        self.normalised_cpu_s: List[float] = []
        self.traced_ids: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.report_bytes = 0

    def fail(self, call: int, problems: List[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems += [f"call {call}: {p}" for p in problems]


def reference_work() -> float:
    """CPU seconds of a fixed computation shaped like the verify path: the
    curvature module's kinds of einsum on 4x4(x4x4) arrays, one inverse per
    three of them, small records; independent of the program."""
    import numpy as np

    start = time.process_time()
    rng = np.random.default_rng(0)
    g = np.eye(4) * 3.0 + rng.uniform(-0.5, 0.5, (4, 4))
    dg = rng.uniform(-1.0, 1.0, (4, 4, 4))
    r = rng.uniform(-1.0, 1.0, (4, 4, 4, 4))
    x, y = rng.uniform(-1.0, 1.0, (2, 4))
    acc = 0.0
    for i in range(800):
        if i % 3 == 0:
            ginv = np.linalg.inv(g + 1e-4 * i)
        bracket = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
        gamma = 0.5 * np.einsum("kl,lij->kij", ginv, bracket)
        upper = np.einsum("mjn,nik->ijkm", gamma, gamma)
        acc += float(np.einsum("ijkl,i,j,k,l->", r, x, y, np.roll(x, -1), y)) + float(upper[0, 0, 0, 0])
        record = {"i": i, "mu": [acc, 0.5 * acc]}
    return time.process_time() - start


def gap_reference() -> float:
    return min(reference_work() for _ in range(REFERENCE_REPEATS))


def run_calls(raw: Dict[str, Any], expectation, seconds: float, tracer=None, between=None) -> Calls:
    """Call run_verify plus serialisation back to back for `seconds`; with a
    tracer, every second call is traced.  `between`, if given, runs after
    each call, outside its timing.  Without a tracer, reference_work() is
    timed before each call and after the last, and each passed call's CPU
    seconds are normalised by the gaps around it."""
    from circulant4 import reporting

    from workloads import check_report, check_text

    calls = Calls()
    passed_cpu: List[Tuple[int, float]] = []
    first_text: Optional[str] = None
    min_calls = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or calls.attempted < min_calls:
        call = calls.attempted
        calls.attempted += 1
        if between is not None and call:
            between()
        traced = tracer is not None and call % 2 == 1
        config = reporting.RunConfig(copy.deepcopy(raw))
        gc.collect()
        if tracer is None:
            calls.gap_reference_s.append(gap_reference())
        try:
            with tracer.tracing(str(call)) if traced else nullcontext():
                start = time.perf_counter()
                start_cpu = time.process_time()
                report = reporting.run_verify(config)
                serialise = reporting.report_json if config.output_format == "json" else reporting.report_to_csv
                text = serialise(report)
                elapsed_cpu = time.process_time() - start_cpu
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a failing call is counted, and the loop goes on
            calls.fail(call, [f"raised {type(exc).__name__}: {exc}"])
            continue
        # The report is dropped before its text is parsed, so checking needs
        # no more memory than the call itself and peak_rss_mb stays the call's.
        problems = check_report(expectation, report)
        del report
        problems += check_text(expectation, text)
        if first_text is None:
            first_text = text
        elif text != first_text:
            problems.append("report is not byte-identical to the run's first report")
        if problems:
            calls.fail(call, problems)
            continue
        calls.report_bytes = len(text.encode("utf-8"))
        (calls.traced_s if traced else calls.untraced_s).append(elapsed)
        (calls.traced_cpu_s if traced else calls.untraced_cpu_s).append(elapsed_cpu)
        if traced:
            calls.traced_ids.append(str(call))
        else:
            passed_cpu.append((call, elapsed_cpu))
        del text
    if tracer is None:
        calls.gap_reference_s.append(gap_reference())
        gaps = calls.gap_reference_s
        calls.normalised_cpu_s = [cpu * REFERENCE_NOMINAL_S / (0.5 * (gaps[call] + gaps[call + 1]))
                                  for call, cpu in passed_cpu]
    return calls


def end_to_end(workload, calls: Calls, setup: SetupTimer) -> Dict[str, Dict[str, Any]]:
    normalised = calls.normalised_cpu_s or [float("nan")]
    lower = statistics.quantiles(normalised, n=4)[0] if len(normalised) > 1 else normalised[0]
    gaps = calls.gap_reference_s
    return {
        "norm_records_per_cpu_s": {
            "value": workload.records / lower,
            "note": f"lower quartile of {len(calls.normalised_cpu_s)} calls, {workload.records} records per call; "
                    f"reference {min(gaps):.4g}-{max(gaps):.4g} s in {len(gaps)} gaps, "
                    f"nominal {REFERENCE_NOMINAL_S} s",
        },
        "setup_s": {
            "value": statistics.median(setup.normalised_cpu_s),
            "note": f"median of {len(setup.cpu_s)} fresh interpreters; raw CPU median "
                    f"{statistics.median(setup.cpu_s):.4g} s, wall median {statistics.median(setup.wall_s):.4g} s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "note": "peak resident set of the measuring process",
        },
    }


def call_spread(workload, calls: Calls) -> Dict[str, Dict[str, Any]]:
    """Wall-clock throughput, median and tail of the untraced verify calls;
    printed, but too dependent on other load of the machine to bound."""
    times = calls.untraced_s or [float("nan")]
    t = tail(times)
    return {
        "records_per_cpu_s": {"value": workload.records / min(calls.untraced_cpu_s, default=float("nan")),
                              "unit": "1/s", "note": f"CPU seconds, fastest of {len(calls.untraced_cpu_s)} calls"},
        "records_per_s": {"value": workload.records / statistics.median(times), "unit": "1/s",
                          "note": f"wall seconds, median of {len(calls.untraced_s)} calls"},
        "verify_s_p50": {"value": statistics.median(times), "unit": "s",
                         "note": f"median of {len(calls.untraced_s)} calls"},
        "verify_s_tail": {"value": t["value"], "unit": "s",
                          "note": f"p{t['percentile']:.1f} of {t['calls']} calls, {t['beyond']} slower"},
    }


def _span_metric(metric: str, summary: Dict[str, Dict[str, Any]]) -> float:
    """A per-layer metric of one traced verify call, named `<span>.<kind>`."""
    if metric == "reporting.serialize_s":
        return summary.get("reporting.serialize", {"total_s": 0.0})["total_s"]
    name, kind = metric.rsplit(".", 1)
    if name in ("curvature.einsum", "curvature.linalg_inv"):
        return sum(e["counters"][name.split(".")[1]] for e in summary.values())
    e = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    per = 1.0 / e["calls"] if e["calls"] else 0.0
    if kind == "calls":
        return e["calls"]
    if kind == "distinct_ratio":
        return e.get("distinct", 0) * per
    if kind == "us_per_call":
        return 1e6 * e["total_s"] * per
    if kind == "self_us":
        return 1e6 * e["self_s"] * per
    if kind == "self_s":
        return e["self_s"]
    raise KeyError(metric)


def per_layer(workload, calls: Calls, tracer, parse_s: List[float]) -> Dict[str, Dict[str, Any]]:
    summaries = [tracer.summary(cid) for cid in calls.traced_ids]
    setup = tracer.summary("setup").get("curvature.random_qbase_seeds")
    drawn = setup["counters"]["qbase_polynomial"] if setup else 0
    untraced_cpu = min(calls.untraced_cpu_s, default=float("nan"))
    traced_cpu = min(calls.traced_cpu_s, default=float("nan"))
    metrics = {
        "reporting.report_bytes": {"value": calls.report_bytes},
        "reporting.config_parse_s": {
            "value": statistics.median(parse_s),
            "note": f"median of {len(parse_s)} in-process RunConfig builds",
        },
        "curvature.random_qbase_seeds.accept_ratio": {
            "value": workload.n_seeds / drawn if drawn else 0.0,
            "note": f"{workload.n_seeds} seeds accepted of {drawn} drawn",
        },
        "trace.overhead_ratio": {
            "value": untraced_cpu / traced_cpu,
            "note": f"traced / untraced records per CPU second, fastest of {len(calls.traced_cpu_s)} "
                    f"and {len(calls.untraced_cpu_s)} calls",
        },
    }
    for metric in PER_LAYER:
        if metric in metrics:
            continue
        values = [_span_metric(metric, s) for s in summaries]
        metrics[metric] = {"value": statistics.median_low(values) if values else 0.0,
                           "note": f"per verify call, median of {len(values)} traced calls"}
        if metric.endswith("distinct_ratio") and summaries:
            e = summaries[0].get(metric.rsplit(".", 1)[0], {"calls": 0})
            metrics[metric]["note"] = f"{e.get('distinct', 0)} distinct inputs of {e['calls']} calls per verify call"
    return {metric: metrics[metric] for metric in PER_LAYER}


def measure(workload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One benchmark run of a workloads.Workload; returns metrics, config and call details."""
    from circulant4 import reporting

    from spans import Tracer
    from workloads import Expectation

    raw = workload.config(seed)
    expectation = Expectation.build(workload, seed)
    result: Dict[str, Any] = {"workload": workload.name, "seed": seed, "trace": int(trace), "config": raw}
    if not trace:
        setup = SetupTimer(raw)
        calls = run_calls(raw, expectation, seconds, between=setup.sample)
        for _ in range(SETUP_REPEATS):
            setup.sample()
        metrics = end_to_end(workload, calls, setup)
        result["calls"] = call_spread(workload, calls)
        result["setup_s"] = {"cpu": setup.cpu_s, "wall": setup.wall_s, "normalised_cpu": setup.normalised_cpu_s}
        units = END_TO_END
    else:
        tracer = Tracer()
        parse_s = []
        for _ in range(CONFIG_PARSE_REPEATS):
            start = time.perf_counter()
            reporting.RunConfig(copy.deepcopy(raw))
            parse_s.append(time.perf_counter() - start)
        with tracer.tracing("setup"):
            reporting.RunConfig(copy.deepcopy(raw))
        calls = run_calls(raw, expectation, seconds, tracer)
        metrics = per_layer(workload, calls, tracer, parse_s)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload.name}-seed{seed}-spans.jsonl")
        result["untraced_bindings"] = tracer.missing
    for name, unit in units.items():
        metrics[name]["unit"] = unit
    result.update(
        attempted=calls.attempted,
        failed=calls.failed,
        failed_share=calls.failed / calls.attempted,
        problems=calls.problems,
        call_s={"untraced": calls.untraced_s, "untraced_cpu": calls.untraced_cpu_s,
                "traced": calls.traced_s, "traced_cpu": calls.traced_cpu_s, "gap_reference": calls.gap_reference_s,
                "normalised_cpu": calls.normalised_cpu_s},
        metrics=metrics,
    )
    return result


def emit(result: Dict[str, Any]) -> None:
    """Print each metric with its unit and base, then the result as the last line."""
    print(f"# workload {result['workload']}, seed {result['seed']}: config {json.dumps(result['config'])}")
    print(f"# machine {json.dumps(result['machine'])}")
    for name, m in result["metrics"].items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{note}")
    for name, m in result.get("calls", {}).items():
        print(f"# {name:42s} {m['value']:.6g} {m['unit']}  ({m['note']})")
    print(f"# {'failed_share':42s} {result['failed_share']:.6g}  ({result['failed']} of {result['attempted']} calls)")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()},
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["seeds_heavy", "points_fd", "control_csv"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    caps = cap_threads()
    import_program()
    from workloads import WORKLOADS

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result["machine"] = machine_facts(caps)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
