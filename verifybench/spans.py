"""In-memory spans around calls into circulant4's public functions.

A traced verify call replaces each public function at the place where its
caller looks it up (for example `reporting.q_section_curvatures`, which
`run_verify` calls, and `curvature.riemann_core`, which
`q_section_curvatures` calls) with a wrapper that records a span, so nested
calls become child spans.  `np.einsum`, `np.linalg.inv` and the q-base
polynomial of the seed sampler are counted, not spanned: each call adds one
to the innermost open span.  The originals are put back after the call.
Nothing in the program's source is changed.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from circulant4 import curvature, fields, reporting

# (module, attribute where the caller looks the function up, span name)
SPANNED = [
    (reporting, "run_verify", "reporting.run_verify"),
    (reporting, "report_json", "reporting.serialize"),
    (reporting, "report_to_csv", "reporting.serialize"),
    (reporting, "random_qbase_seeds", "curvature.random_qbase_seeds"),
    (reporting, "eval_jet", "fields.eval_jet"),
    (reporting, "parallel_residual", "fields.parallel_residual"),
    (reporting, "metric_derivatives", "curvature.metric_derivatives"),
    (reporting, "riemann_core", "curvature.riemann_core"),
    (reporting, "nabla_q_residual", "curvature.nabla_q_residual"),
    (reporting, "symmetry_residuals", "curvature.symmetry_residuals"),
    (reporting, "q_section_curvatures", "curvature.q_section_curvatures"),
    (reporting, "identity_suite", "curvature.identity_suite"),
    (reporting, "spectral_frame", "frames.spectral_frame"),
    (reporting, "verify_frame", "frames.verify_frame"),
    (curvature, "eval_jet", "fields.eval_jet"),
    (curvature, "metric_derivatives", "curvature.metric_derivatives"),
    (curvature, "christoffel", "curvature.christoffel"),
    (curvature, "christoffel_core", "curvature.christoffel_core"),
    (curvature, "riemann_core", "curvature.riemann_core"),
    (fields, "eval_jet", "fields.eval_jet"),
]

# (module, attribute, counter name)
COUNTED = [
    (np, "einsum", "einsum"),
    (np.linalg, "inv", "linalg_inv"),
    (curvature, "qbase_polynomial", "qbase_polynomial"),
]


def _point_key(args, kwargs) -> bytes:
    return np.asarray(args[1], dtype=float).tobytes()


def _arrays_key(args, kwargs) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in args[:3])


# Spans whose distinct inputs are counted: (chart point) and (g, dg, ddg).
DISTINCT_KEYS: Dict[str, Callable] = {
    "fields.eval_jet": _point_key,
    "curvature.riemann_core": _arrays_key,
}


class Tracer:
    """Spans of traced calls, kept in memory until `write` at the end of the run.

    A span is [name, start, end, parent index or -1, call id, counters].
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._call_id: Optional[str] = None
        self._distinct: Dict[tuple, set] = defaultdict(set)
        self._ranges: Dict[str, range] = {}
        self.missing = sorted({f"{m.__name__}.{a}" for m, a, _ in SPANNED + COUNTED if not hasattr(m, a)})

    def _spanned(self, fn: Callable, name: str) -> Callable:
        key_of = DISTINCT_KEYS.get(name)

        def wrapper(*args, **kwargs):
            if key_of is not None:
                self._distinct[(self._call_id, name)].add(key_of(args, kwargs))
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._call_id, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            if self._stack:
                span = self.spans[self._stack[-1]]
                if span[5] is None:
                    span[5] = Counter()
                span[5][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def tracing(self, call_id: str):
        """Install the wrappers for one call and restore the originals afterwards."""
        saved = []
        first = len(self.spans)
        try:
            for module, attr, name in SPANNED:
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._spanned(getattr(module, attr), name))
            for module, attr, name in COUNTED:
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._counted(getattr(module, attr), name))
            self._call_id = call_id
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._call_id = None
            self._ranges[call_id] = range(first, len(self.spans))

    def summary(self, call_id: str) -> Dict[str, Dict[str, Any]]:
        """Per span name for one call: calls, total and self seconds, distinct
        inputs, and the counters of its spans."""
        spans = [(i, self.spans[i]) for i in self._ranges[call_id]]
        child_time: Dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: Dict[str, Dict[str, Any]] = {}
        for i, s in spans:
            entry = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counters": Counter()})
            entry["calls"] += 1
            entry["total_s"] += s[2] - s[1]
            entry["self_s"] += s[2] - s[1] - child_time[i]
            if s[5]:
                entry["counters"].update(s[5])
        for (cid, name), keys in self._distinct.items():
            if cid == call_id and name in out:
                out[name]["distinct"] = len(keys)
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, call id, counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[0], s[1], s[2], s[3], s[4], dict(s[5] or {})]) + "\n")
