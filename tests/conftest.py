"""Shared fixtures: the builtin measures are immutable, so build each once."""

import importlib
import pkgutil

import numpy as np
import pytest

import isocert
from isocert import measure1d
from isocert.entropy import F_tau, log_entropy
from isocert.measure1d import builtin_measure


def module_caches():
    """{"module.name": cache} for every module-level cache of the isocert
    modules: an object with cache_clear (not a class) defined in the module
    that holds it, so a cache imported elsewhere is named once."""
    caches = {}
    for info in pkgutil.iter_modules(isocert.__path__):
        module = importlib.import_module(f"isocert.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and not isinstance(obj, type) and obj.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = obj
    return caches


_CACHES = module_caches()


@pytest.fixture(autouse=True)
def _empty_caches():
    """Every test starts with empty module caches (parsers, profiles, costs,
    node layouts) and empty kept tables (measure1d.Kept: the measures and,
    on every measure still alive, the session fixtures' among them, what it
    keeps), so each sees its own builds and its own A1-A4 samples."""
    for cache in _CACHES.values():
        cache.cache_clear()
    for kept in list(measure1d._ALL_KEPT):
        kept.clear()


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
