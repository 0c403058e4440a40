"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s` or via
the command line as `jetgeo selftest`."""
import numpy as np
import pytest

from jetgeo import acceptance
from jetgeo.acceptance import ALL_CRITERIA, AcceptanceConfig, sphere_chart_connection

from conftest import levi_civita_connection, sphere_metric


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion(AcceptanceConfig(seed=0))
    print(result.line())
    assert result.passed, result.line()


def test_acceptance_is_deterministic():
    first = ALL_CRITERIA[0](AcceptanceConfig(seed=0))
    second = ALL_CRITERIA[0](AcceptanceConfig(seed=0))
    assert first.deviation == second.deviation


def test_tolerance_squeeze_fails_controlled():
    result = ALL_CRITERIA[0](AcceptanceConfig(seed=0, tol_override=1e-30))
    assert not result.passed
    assert result.deviation > 1e-30


def _nan_on_second_call(kernel, poison):
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        result = kernel(*args, **kwargs)
        return poison(result) if len(calls) == 2 else result
    return patched


# criteria 1, 5 and 6 call their kernel once per dimension case, and
# criterion 3 once per dimension: the second call poisons every sample of
# the second case
@pytest.mark.parametrize("name, kernel, poison", [
    ("criterion_1", "residual_table", lambda table: table * np.nan),
    ("criterion_3", "pi_deviations", lambda devs: devs * np.nan),
    ("criterion_5", "covering_commutation_deviations", lambda devs: devs * np.nan),
    ("criterion_6", "quotient_diagram_deviations", lambda devs: devs * np.nan),
])
def test_a_nan_deviation_fails_its_criterion(name, kernel, poison, monkeypatch):
    monkeypatch.setattr(acceptance, kernel, _nan_on_second_call(getattr(acceptance, kernel), poison))
    result = getattr(acceptance, name)(AcceptanceConfig(seed=0))
    assert not result.passed and np.isnan(result.deviation)


def test_sphere_fixture_matches_levi_civita(sphere_frame):
    derived = levi_civita_connection(sphere_metric(sphere_frame), sphere_frame)
    pinned = sphere_chart_connection()
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = rng.uniform(-0.9, 0.9, 2)
        assert np.abs(derived.christoffel_at(p) - pinned.christoffel_at(p)).max() <= 1e-12
