"""In-memory spans around calls into mixlab's public functions.

Each traced name is replaced where its caller looks it up (a module
attribute such as ``mixlab.averaging.sylvester_constant``), so no file of the
package changes.  A span is ``[name, start, end, parent, item, pass, count]``;
``parent`` is the index of the enclosing span (-1 at top level) and ``count``
is a work count derived from the call's arguments or result.
"""

from __future__ import annotations

import functools
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.linalg

from mixlab import averaging, certificates, harness, inviscid, shear

NAME, START, END, PARENT, ITEM, PASS, COUNT = range(7)


def _active_x_modes(rho0) -> int:
    return int(np.count_nonzero(np.any(np.abs(rho0.coeff) > 0.0, axis=1)))


def _steps(traj) -> int:
    return len(traj.diag_times) - 1


# (span name, module, attribute, count(args, result) or None)
TARGETS = [
    ("harness.corpus_run", harness, "corpus_run", None),
    ("harness.run", harness, "run", None),
    ("inviscid.inviscid_certificate", inviscid, "inviscid_certificate", None),
    ("inviscid.check_inviscid_bound", inviscid, "check_inviscid_bound", None),
    ("inviscid.evolve_inviscid", inviscid, "evolve_inviscid", None),
    ("certificates.c2_certificate", certificates, "c2_certificate", None),
    ("certificates.mixing_certificate", certificates, "mixing_certificate", None),
    ("certificates.check_exponential_bound", certificates, "check_exponential_bound", None),
    ("certificates.check_upper_envelope", certificates, "check_upper_envelope", None),
    ("certificates.check_mixing_bound", certificates, "check_mixing_bound", None),
    ("shear.evolve_shear", shear, "evolve_shear", lambda a, out: _steps(out) * _active_x_modes(a[0])),
    ("flows.time_average", averaging, "time_average", None),
    ("averaging.averaged_operator", averaging, "averaged_operator", lambda a, out: out.dim),
    ("averaging.detecting_spectrum", averaging, "detecting_spectrum", lambda a, out: a[0].dim),
    ("averaging.sylvester_constant", averaging, "sylvester_constant", lambda a, out: a[0].dim),
    ("averaging.fast_certificate", averaging, "fast_certificate", None),
    ("averaging.damping_constant", averaging, "damping_constant", None),
    ("averaging.evolve_2d", averaging, "evolve_2d", lambda a, out: _steps(out)),
    ("averaging.check_fast_bound", averaging, "check_fast_bound", None),
]


class _LinalgView:
    """Stands in for ``scipy.linalg`` inside mixlab.averaging with a traced ``schur``."""

    def __init__(self, schur):
        self.schur = schur

    def __getattr__(self, name):
        return getattr(scipy.linalg, name)


class Tracer:
    """Collects spans in memory, tagged with ``pass_no`` and with ``item`` where an item opens."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: str | None = None
        self.pass_no = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, on_enter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            parent = self._stack[-1] if self._stack else -1
            # an "item" span opens an item; every other span belongs to its parent's item
            item = self.item if name == "item" or parent < 0 else self.spans[parent][ITEM]
            rec = [name, perf_counter(), 0.0, parent, item, self.pass_no, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
            if count is not None:
                rec[COUNT] = count(args, out)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Trace every TARGETS name, ``Scenario.from_file`` and the sorted Schur calls."""
        saved = []
        try:
            for name, module, attr, count in TARGETS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), count))
            from_file = harness.Scenario.__dict__["from_file"]
            saved.append((harness.Scenario, "from_file", from_file))
            harness.Scenario.from_file = classmethod(
                self.wrap("harness.Scenario.from_file", from_file.__func__)
            )
            saved.append((averaging, "sla", averaging.sla))
            averaging.sla = _LinalgView(self.wrap("scipy.linalg.schur", scipy.linalg.schur))
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)


def _self_time(spans, i: int, children: dict) -> float:
    s = spans[i]
    return (s[END] - s[START]) - sum(spans[c][END] - spans[c][START] for c in children.get(i, ()))


def _slope(points: list[tuple[int, float]]) -> float:
    """Log-log slope of median duration against n; 0.0 with fewer than two sizes."""
    by_n: dict[int, list[float]] = {}
    for n, dur in points:
        by_n.setdefault(n, []).append(dur)
    if len(by_n) < 2:
        return 0.0
    ns = sorted(by_n)
    ys = [statistics.median(by_n[n]) for n in ns]
    return float(np.polyfit(np.log(ns), np.log(ys), 1)[0])


# per-pass totals of span durations reported as "<name>.s"
SUMMED = {
    "shear.evolve_shear.s": ("shear.evolve_shear",),
    "certificates.c2_certificate.s": ("certificates.c2_certificate",),
    "certificates.mixing_certificate.s": ("certificates.mixing_certificate",),
    "certificates.check.s": (
        "certificates.check_exponential_bound",
        "certificates.check_upper_envelope",
        "certificates.check_mixing_bound",
    ),
    "inviscid.evolve_inviscid.s": ("inviscid.evolve_inviscid",),
    "harness.Scenario.from_file.s": ("harness.Scenario.from_file",),
    "flows.time_average.s": ("flows.time_average",),
    "averaging.averaged_operator.s": ("averaging.averaged_operator",),
    "averaging.detecting_spectrum.s": ("averaging.detecting_spectrum",),
    "averaging.sylvester_constant.s": ("averaging.sylvester_constant",),
    "averaging.damping_constant.s": ("averaging.damping_constant",),
    "averaging.check_fast_bound.s": ("averaging.check_fast_bound",),
    "averaging.evolve_2d.s": ("averaging.evolve_2d",),
}


def item_breakdown(spans: list[list], traced_passes: list[int]) -> dict[str, dict[str, float]]:
    """Per item, the median over traced passes of each traced name's total time."""
    totals: dict[str, dict[str, dict[int, float]]] = {}
    traced = set(traced_passes)
    for s in spans:
        if s[PASS] in traced and s[NAME] != "item":
            per_pass = totals.setdefault(s[ITEM] or "(outside items)", {}).setdefault(s[NAME], {})
            per_pass[s[PASS]] = per_pass.get(s[PASS], 0.0) + s[END] - s[START]
    return {
        item: {name: statistics.median(list(p.values()) + [0.0] * (len(traced) - len(p))) for name, p in names.items()}
        for item, names in totals.items()
    }


def layer_metrics(spans: list[list], traced_passes: list[int]) -> dict[str, float]:
    """Per-layer figures from the spans of the traced passes.

    Time and count figures are the in-process set-up total (pass 0) plus the
    median over traced passes of each pass's total; the ``us_per_*`` rates and
    ``clusters_tried`` are ratios of those totals, and the exponents are
    log-log slopes over every traced call.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)

    def total(key) -> float:
        per_pass = {p: 0.0 for p in traced_passes}
        setup = 0.0
        for i, s in enumerate(spans):
            value = key(i, s)
            if value is None:
                continue
            if s[PASS] == 0:
                setup += value
            elif s[PASS] in per_pass:
                per_pass[s[PASS]] += value
        return setup + (statistics.median(per_pass.values()) if per_pass else 0.0)

    def duration_of(*names):
        return lambda i, s: (s[END] - s[START]) if s[NAME] in names else None

    def count_of(name):
        return lambda i, s: s[COUNT] if s[NAME] == name else None

    def calls_of(name):
        return lambda i, s: 1 if s[NAME] == name else None

    def self_of(name):
        return lambda i, s: _self_time(spans, i, children) if s[NAME] == name else None

    out = {metric: total(duration_of(*names)) for metric, names in SUMMED.items()}
    out["harness.run.self_s"] = total(self_of("harness.run"))
    out["harness.corpus_run.self_s"] = total(self_of("harness.corpus_run"))
    out["inviscid.evolve_inviscid.calls"] = total(calls_of("inviscid.evolve_inviscid"))
    out["averaging.averaged_operator.n"] = total(count_of("averaging.averaged_operator"))

    mode_steps = total(count_of("shear.evolve_shear"))
    out["shear.evolve_shear.mode_steps"] = mode_steps
    out["shear.evolve_shear.us_per_mode_step"] = (
        1e6 * out["shear.evolve_shear.s"] / mode_steps if mode_steps else 0.0
    )
    steps = total(count_of("averaging.evolve_2d"))
    out["averaging.evolve_2d.steps"] = steps
    out["averaging.evolve_2d.us_per_step"] = 1e6 * out["averaging.evolve_2d.s"] / steps if steps else 0.0

    detections = total(calls_of("averaging.detecting_spectrum"))
    sorted_schur = total(
        lambda i, s: 1
        if s[NAME] == "scipy.linalg.schur"
        and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "averaging.detecting_spectrum"
        else None
    )
    out["averaging.detecting_spectrum.clusters_tried"] = sorted_schur / detections if detections else 0.0

    traced = set(traced_passes)
    timed = [s for s in spans if s[PASS] in traced]
    for name in ("averaging.detecting_spectrum", "averaging.sylvester_constant"):
        out[f"{name}.exponent"] = _slope([(s[COUNT], s[END] - s[START]) for s in timed if s[NAME] == name])
    return {k: (v if math.isfinite(v) else 0.0) for k, v in out.items()}
