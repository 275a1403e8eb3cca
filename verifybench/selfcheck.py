#!/usr/bin/env python3
"""Fast self-check of the benchmark harness; it is not part of the test suite.

    python3 verifybench/selfcheck.py

On tiny grids of every workload it checks that an untraced and a traced run
print every metric named in BENCHMARK.json with its unit and count no
failures, and that a corrupted report, a wrong status and a report that is
not byte-identical are each counted as failed.  On the full `control_csv`
config it checks that one traced verify call makes exactly the calls the seed
code makes: 4864 eval_jet, 4352 riemann_core, 130048 einsum and 8960 inv.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

EXPECTED_CONTROL_COUNTS = {
    "fields.eval_jet.calls": 4864,
    "curvature.riemann_core.calls": 4352,
    "curvature.einsum.calls": 130048,
    "curvature.linalg_inv.calls": 8960,
}


def printed(result) -> dict:
    """The last line `run.emit` prints for a result, parsed."""
    result = dict(result, machine={})
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.emit(result)
    return json.loads(buf.getvalue().splitlines()[-1])


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAILED'}] {what}")
    if not ok:
        raise SystemExit(1)


def main() -> int:
    run.cap_threads()
    run.import_program()
    from circulant4 import reporting

    from workloads import WORKLOADS

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "BENCHMARK.json names every workload")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        check(declared == units, f"BENCHMARK.json {key} metrics match what run.py prints")

    tiny = {name: dataclasses.replace(w, name=f"{name}_tiny", grid_count=2, n_seeds=2)
            for name, w in WORKLOADS.items()}
    for w in tiny.values():
        for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            out = printed(run.measure(w, seed=3, seconds=0.3, trace=trace))
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{w.name} trace={int(trace)}: {out['attempted']} calls, none failed")
            check({k: v["unit"] for k, v in out["metrics"].items()} == units
                  and all(v["value"] > 0 for k, v in out["metrics"].items() if units is run.END_TO_END),
                  f"{w.name} trace={int(trace)}: every metric printed with its unit")

    # Each corruption hits the second call of a run, so it must count one failure.
    def on_second_call(fn, corrupt):
        seen = []

        def wrapper(*args, **kwargs):
            seen.append(1)
            out = fn(*args, **kwargs)
            return corrupt(out) if len(seen) == 2 else out

        return wrapper

    report_json = reporting.report_json

    def bad_mu(text):
        report = json.loads(text)
        report["records"][0]["mu"][0] += 1e-6
        return report_json(report)

    def bad_status(report):
        report["summary"]["status"] = "pass"
        return report

    def trailing_space(text):
        return text + " "

    cases = [
        ("report_json", bad_mu, tiny["seeds_heavy"], "mu deviates", "a mu off by 1e-6 in the JSON report"),
        ("run_verify", bad_status, tiny["control_csv"], "status 'pass'", "a control report claiming status pass"),
        ("report_to_csv", trailing_space, tiny["control_csv"], "byte-identical", "a CSV report with a changed byte"),
    ]
    for attr, corrupt, w, problem, what in cases:
        original = getattr(reporting, attr)
        setattr(reporting, attr, on_second_call(original, corrupt))
        try:
            result = run.measure(w, seed=3, seconds=0.0, trace=True)
        finally:
            setattr(reporting, attr, original)
        out = printed(result)
        check(not out["correct"] and out["failed"] == 1 and result["failed_share"] == 0.5
              and any(problem in p for p in result["problems"]),
              f"{what} is counted in failed_share ({result['failed']} of {result['attempted']} calls)")

    result = run.measure(WORKLOADS["control_csv"], seed=0, seconds=0.0, trace=True)
    counts = {k: result["metrics"][k]["value"] for k in EXPECTED_CONTROL_COUNTS}
    check(result["failed"] == 0 and counts == EXPECTED_CONTROL_COUNTS,
          f"control_csv traced call counts {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
