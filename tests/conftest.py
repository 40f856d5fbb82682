"""Shared instance corpus, built once per session."""

import numpy as np
import pytest

from cprojlab.builders import (
    CompatiblePairSpec, Complex2D, ConstantBlock, Real1D,
    build_main_example, build_mobility2, build_quotient_pair, lift_pair,
    mobility_spec, solve_jordan_odes, jordan_pair_spec,
)
from cprojlab.jets import Jet

RNG_SEED = 20260809


def pair_ell1():
    # rho ranges over about (0.21, 0.63): clear of the constants 0 and 1
    return CompatiblePairSpec(
        (Real1D(1, (0.1, 0.5, 0.2), (0.2, 0.8)),), name="ell1")


def pair_dini():
    return CompatiblePairSpec(
        (Real1D(1, (0.0, 1.0), (0.2, 0.8)),
         Real1D(1, (2.0, 1.0), (0.2, 0.8))), name="dini")


def pair_complex():
    return CompatiblePairSpec(
        (Complex2D((0j, 1.0 + 0j), ((0.2, 0.8), (0.2, 0.8))),),
        name="complex")


@pytest.fixture(scope="session")
def qp_ell1():
    return build_quotient_pair(pair_ell1())


@pytest.fixture(scope="session")
def qp_dini():
    return build_quotient_pair(pair_dini())


@pytest.fixture(scope="session")
def qp_complex():
    return build_quotient_pair(pair_complex())


@pytest.fixture(scope="session")
def corpus(qp_ell1, qp_dini):
    """The six-instance construction corpus with constant-eigenvalue data.

    Entries: (name, chart, [(c, complex multiplicity)])."""
    cb0 = (ConstantBlock(0.0, 2),)
    cb1 = (ConstantBlock(1.0, 2),)
    cb01 = (ConstantBlock(0.0, 2), ConstantBlock(1.0, 2))
    out = [
        ("ell1-plain", lift_pair(qp_ell1, route="explicit"), []),
        ("ell1-cb0", lift_pair(qp_ell1, cb0, route="explicit"),
         [(0.0, 1)]),
        ("ell1-cb1", lift_pair(qp_ell1, cb1, route="explicit"),
         [(1.0, 1)]),
        ("dini-lift", lift_pair(qp_dini, route="jacobian"), []),
        ("complex-pair", build_main_example(pair_complex()), []),
        ("mobility2", build_mobility2(1, 1.0, -0.5, cb=cb01),
         [(0.0, 1), (1.0, 1)]),
    ]
    return out


@pytest.fixture(scope="session")
def mob_l2():
    """Two-eigenvalue mobility chart used in the curvature checks."""
    return build_mobility2(2, 1.0, -1.5)


@pytest.fixture(scope="session")
def jordan2_sol():
    return solve_jordan_odes("2x2", 2, -1.5, (0.5, 0.1), (0.2, 0.8))


@pytest.fixture(scope="session")
def jordan3_sol():
    return solve_jordan_odes("3x3", 2, -1.5, (0.5, 0.1, 0.2), (0.2, 0.8))


@pytest.fixture(scope="session")
def qp_jordan2(jordan2_sol):
    return build_quotient_pair(jordan_pair_spec(
        jordan2_sol, extra_windows=((0.55, 0.75),), extra_a=(1.0,),
        x_window=(1.2, 1.8), rho1_window=(0.22, 0.42)))


@pytest.fixture(scope="session")
def qp_jordan3(jordan3_sol):
    return build_quotient_pair(jordan_pair_spec(
        jordan3_sol, x_window=(1.2, 1.8)))


@pytest.fixture(scope="session")
def qp_mobility_leaf():
    return build_quotient_pair(mobility_spec(2, 1.0, -1.5))


def sample(chart_or_pair, n, seed=RNG_SEED):
    rng = np.random.default_rng(seed)
    return chart_or_pair.window.random(n, rng)


def with_nan(jet, k, index):
    """A copy of ``jet`` with NaN at ``index`` of its order-``k``
    coefficients."""
    coeffs = [c.copy() for c in jet.c]
    coeffs[k][index] = np.nan
    return Jet(jet.dim, jet.order, coeffs)
