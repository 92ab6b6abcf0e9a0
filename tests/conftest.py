"""Shared fixtures: the builtin measures are immutable, so build each once."""

import numpy as np
import pytest

import isocert.checker as checker
import isocert.cli as cli
import isocert.entropy as entropy
from isocert.entropy import F_tau, log_entropy
from isocert.measure1d import builtin_measure


@pytest.fixture(autouse=True)
def _empty_caches():
    """Every test starts with empty measure, parser, profile, cost and node
    layout caches, so each sees its own builds and its own A1-A4 samples."""
    cli._measure.cache_clear()
    cli._parser.cache_clear()
    cli._expr_entropy.cache_clear()
    cli._expr_cost.cache_clear()
    checker._layout.cache_clear()
    entropy.log_entropy.cache_clear()
    entropy._F_tau_over_log.cache_clear()


@pytest.fixture(scope="session")
def gauss():
    return builtin_measure("gauss")


@pytest.fixture(scope="session")
def exp_measure():
    return builtin_measure("exp")


@pytest.fixture(scope="session")
def loglog():
    return builtin_measure("loglog")


@pytest.fixture(scope="session")
def exp_power_15():
    return builtin_measure("exp_power", alpha=1.5)


@pytest.fixture(scope="session")
def F_log():
    return log_entropy()


@pytest.fixture(scope="session")
def F_half():
    return F_tau(0.5)


@pytest.fixture(scope="session")
def gauss_wide_uniform():
    """Uniform grid wide enough that Gaussian tail truncation is negligible."""
    return builtin_measure("gauss", n=4001, support=(-12.0, 12.0), grid_kind="uniform")


def exp_member(mu, lam):
    """f = e^{lam x / 2} with exact derivative, sampled on mu's grid."""
    from isocert.measure1d import SampledFunction

    return SampledFunction.from_callable(
        mu,
        lambda x: np.exp(0.5 * lam * x),
        dfn=lambda x: 0.5 * lam * np.exp(0.5 * lam * x),
        log_deriv_fn=lambda x: np.full_like(x, 0.5 * lam),
        name=f"exp({lam:g})",
    )
