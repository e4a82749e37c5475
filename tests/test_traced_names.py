"""The names perfbench/tracer.py patches must resolve, and patched names must be called.

The tracer replaces module attributes where callers look them up, so a
rename, or a call that binds a function before the tracer can patch it,
would silently drop a span from the traced benchmark run; these checks make
it fail here instead.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from mixlab import averaging, harness
from mixlab.shear import FieldTrajectory, _segment_steps

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_resolve(tracer):
    for name, module, attr, _ in tracer.TARGETS:
        assert callable(getattr(module, attr, None)), name
    assert callable(averaging.sla.schur)
    assert isinstance(harness.Scenario.__dict__["from_file"], classmethod)
    assert "diag_times" in {f.name for f in dataclasses.fields(FieldTrajectory)}


def test_fast_certificate_spans_land(tracer):
    raw = json.loads((ROOT / "scenarios" / "extra" / "fast_shear_mean.json").read_text())
    raw["cutoff"] = 4
    scenario = harness.Scenario.from_json(raw)
    with tracer.Tracer().patched() as tr:
        harness._certify(scenario)
    names = [s[tracer.NAME] for s in tr.spans]
    edges = {(s[tracer.NAME], tr.spans[s[tracer.PARENT]][tracer.NAME]) for s in tr.spans if s[tracer.PARENT] >= 0}
    for name in (
        "averaging.averaged_operator",
        "averaging.detecting_spectrum",
        "averaging.sylvester_constant",
        "averaging.fast_certificate",
        "averaging.damping_constant",
    ):
        assert name in names
    assert ("flows.time_average", "averaging.averaged_operator") in edges
    assert ("averaging.damping_constant", "averaging.fast_certificate") in edges
    assert ("scipy.linalg.schur", "averaging.detecting_spectrum") in edges
    sorted_schur = sum(
        1
        for s in tr.spans
        if s[tracer.NAME] == "scipy.linalg.schur"
        and s[tracer.PARENT] >= 0
        and tr.spans[s[tracer.PARENT]][tracer.NAME] == "averaging.detecting_spectrum"
    )
    detections = names.count("averaging.detecting_spectrum")
    clusters_tried = tracer.layer_metrics(tr.spans, [])["averaging.detecting_spectrum.clusters_tried"]
    assert clusters_tried == sorted_schur / detections


def _ancestors(tracer, spans, i):
    names = []
    while spans[i][tracer.PARENT] >= 0:
        i = spans[i][tracer.PARENT]
        names.append(spans[i][tracer.NAME])
    return names


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "heat_cosy",
            (
                "certificates.c2_certificate",
                "certificates.mixing_certificate",
                "shear.evolve_shear",
                "certificates.check_exponential_bound",
                "certificates.check_upper_envelope",
                "certificates.check_mixing_bound",
            ),
        ),
        (
            "inviscid_cosx_siny",
            ("inviscid.inviscid_certificate", "inviscid.evolve_inviscid", "inviscid.check_inviscid_bound"),
        ),
        (
            "fast_averaging_study",
            ("averaging.fast_certificate", "averaging.evolve_2d", "averaging.check_fast_bound"),
        ),
    ],
    ids=["heat_cosy", "inviscid_cosx_siny", "fast_averaging_study"],
)
def test_run_spans_land_under_run(tracer, name, expected):
    (path,) = ROOT.glob(f"scenarios/*/{name}.json")
    scenario = harness.Scenario.from_file(path)
    if scenario.regime == "fast_oscillation":  # at the benchmark's horizon of 0.2
        scenario = dataclasses.replace(scenario, times=np.linspace(0.0, 0.2, 3))
    with tracer.Tracer().patched() as tr:
        report = harness.run(scenario)
    for target in expected:
        hits = [i for i, s in enumerate(tr.spans) if s[tracer.NAME] == target]
        assert hits, target
        for i in hits:
            assert "harness.run" in _ancestors(tracer, tr.spans, i), target
    if "averaging.evolve_2d" in expected:
        # the step count behind averaging.evolve_2d.us_per_step is the trajectory's
        steps = tracer.layer_metrics(tr.spans, [])["averaging.evolve_2d.steps"]
        assert steps == report.trajectory.diag_times.size - 1 > 0


@pytest.mark.parametrize("name", ["sinshear_cosx", "timeshear_cosx"], ids=["steady", "time_periodic"])
def test_mode_steps_count_the_step_grid(tracer, name):
    """shear.evolve_shear.mode_steps is the step grid times the active modes, however a segment is advanced."""
    scenario = harness.Scenario.from_file(ROOT / "scenarios" / "corpus" / f"{name}.json")
    with tracer.Tracer().patched() as tr:
        harness.run(scenario)
    edges = np.concatenate(([0.0], scenario.times))
    steps = sum(_segment_steps(a, b, scenario.dt)[0] for a, b in zip(edges[:-1], edges[1:]) if b > a)
    modes = int(np.count_nonzero(np.any(scenario.rho0.coeff != 0.0, axis=1)))
    assert tracer.layer_metrics(tr.spans, [])["shear.evolve_shear.mode_steps"] == steps * modes > 0
