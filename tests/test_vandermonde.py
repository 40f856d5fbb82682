import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cprojlab.jets import Jet
from cprojlab.builders import PowerProfile

from vandermonde import (
    VandermondeError, collision_limit, collision_limit_numeric,
    corner_vanishes, det_quotient, locate_window_endpoint, sum_over_delta,
)


def test_low_degree_annihilation():
    rho = np.array([0.13, 0.41, 0.78])
    for j in range(2):                      # degrees <= ell - 2
        f = sum_over_delta(lambda t, j=j: t ** j, rho)
        assert abs(f) < 1e-12
    # degree ell - 1 gives exactly one
    assert abs(sum_over_delta(lambda t: t ** 2, rho) - 1.0) < 1e-12
    rho2 = np.array([0.3, 0.9])
    assert abs(sum_over_delta(lambda t: t, rho2) - 1.0) < 1e-14


def test_sum_equals_det_quotient_closed_form():
    # ell = 2 symbolic check: f = (k(r1) - k(r2)) / (r1 - r2)
    r = np.array([0.25, 0.85])
    k = lambda t: np.sin(3 * t) + t ** 4
    expect = (k(r[0]) - k(r[1])) / (r[0] - r[1])
    assert abs(sum_over_delta(k, r) - expect) < 1e-13
    assert abs(det_quotient(k, r) - expect) < 1e-13


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_sum_vs_det_random(seed):
    rng = np.random.default_rng(seed)
    rho = np.sort(rng.uniform(-2, 2, size=3))
    if np.min(np.diff(rho)) < 1e-3:
        return
    k = lambda t: np.exp(0.7 * t) + np.sin(t)
    a = sum_over_delta(k, rho)
    b = det_quotient(k, rho)
    assert abs(a - b) <= 1e-11 * (1 + abs(a))


def test_sum_vs_det_exp_fixed_case():
    rho = np.array([0.21, 0.47, 0.83])
    assert abs(sum_over_delta(np.exp, rho)
               - det_quotient(np.exp, rho)) <= 1e-11


def test_distinct_functions_per_slot():
    rho = np.array([0.2, 0.5, 0.9])
    ks = [lambda t: t, lambda t: t * t, lambda t: np.cos(t)]
    direct = sum(ks[i](rho[i])
                 / np.prod([rho[i] - rho[j] for j in range(3) if j != i])
                 for i in range(3))
    assert abs(sum_over_delta(ks, rho) - direct) < 1e-13
    assert abs(det_quotient(ks, rho) - direct) < 1e-12


def test_gap_threshold_enforced():
    with pytest.raises(VandermondeError, match="gap"):
        sum_over_delta(lambda t: t, np.array([0.5, 0.5 + 1e-12]))


def test_collision_limits():
    k3 = lambda t: t * t * t if not isinstance(t, Jet) else t * t * t
    assert abs(collision_limit(k3, 2.0, 2) - 12.0) < 1e-12
    ke = lambda t: t.exp() if isinstance(t, Jet) else np.exp(t)
    assert abs(collision_limit(ke, 0.0, 3) - 0.5) < 1e-12
    # numeric cross-check converges to the jet value
    vals = collision_limit_numeric(lambda t: np.exp(t), 0.0, 3)
    assert abs(vals[-1] - 0.5) < 1e-4
    with pytest.raises(VandermondeError):
        collision_limit(ke, 0.0, 5)


def test_unbounded_with_mismatched_slots():
    # fixed distinct k1 != k2: the sum diverges as the gap closes
    ks = [lambda t: t * t, lambda t: 2 * t * t]
    vals = [abs(sum_over_delta(ks, np.array([0.5 - h, 0.5 + h])))
            for h in (1e-2, 1e-3, 1e-4)]
    assert vals[1] > 5 * vals[0] and vals[2] > 5 * vals[1]
    # equal smooth slots converge to the collision limit
    k = lambda t: np.sin(t)
    vals = [sum_over_delta(k, np.array([0.5 - h, 0.5 + h]))
            for h in (1e-2, 1e-3)]
    assert abs(vals[-1] - np.cos(0.5)) < 1e-5


def _profile(ell):
    return lambda C: PowerProfile(1.0, C, 1.0 + ell + C)


def test_corner_criterion():
    # ell = 2, C = -1.5 inside the window: both corner limits vanish
    prof = _profile(2)(-1.5)
    assert corner_vanishes(prof, 0.0, 2)
    assert corner_vanishes(prof, 1.0, 2)
    # C = -0.5 is outside (upper endpoint -1): corner 1 fails
    assert not corner_vanishes(_profile(2)(-0.5), 1.0, 2)
    # C = -2.5 is below the lower endpoint -2: corner 0 fails
    assert not corner_vanishes(_profile(2)(-2.5), 0.0, 2)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_window_endpoints_by_bisection(ell):
    make = _profile(ell)
    lower = locate_window_endpoint(make, 0.0, ell, -2.7, -1.3)
    assert abs(lower - (-2.0)) <= 0.05
    upper = locate_window_endpoint(make, 1.0, ell, float(1 - ell) - 0.7,
                                   float(1 - ell) + 0.7)
    assert abs(upper - (1.0 - ell)) <= 0.05
