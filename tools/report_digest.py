"""Print the sha256 of each default report and one digest over them all.

The default reports are the three benchmark workloads of
verifybench/workloads.py at rng_seed 7, 101, 2001 and 5828, each in both
derivative modes and written by both writers: 48 reports.  Each digest is
of the text that `circulant4 verify` writes for that config, in UTF-8.  The
last line is the sha256 of the 48 lines above it, so two trees that print
the same last line wrote the same bytes on this machine (numpy builds may
round differently).

Run from anywhere; the program is imported from this checkout's src/:

    python3 tools/report_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "verifybench")]

from circulant4.reporting import WRITERS, RunConfig, run_verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RNG_SEEDS = (7, 101, 2001, 5828)
DERIVATIVE_MODES = ("analytic", "finite_difference")


def digest_lines() -> list:
    """One "sha256  workload rng_seed mode format" line per default report."""
    lines = []
    for name, workload in WORKLOADS.items():
        for rng_seed in RNG_SEEDS:
            for mode in DERIVATIVE_MODES:
                report = run_verify(RunConfig({**workload.config(rng_seed), "derivative_mode": mode}))
                for fmt, writer in WRITERS.items():
                    digest = hashlib.sha256(writer(report).encode("utf-8")).hexdigest()
                    lines.append(f"{digest}  {name} rng_seed={rng_seed} {mode} {fmt}")
    return lines


def main() -> None:
    lines = digest_lines()
    combined = hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()
    print(*lines, f"{combined}  all {len(lines)} reports", sep="\n")


if __name__ == "__main__":
    main()
