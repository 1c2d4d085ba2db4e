"""The shared count check of ``wthi.errors`` at every count argument of the library."""

import re

import numpy as np
import pytest

from wthi.binning import CodebookSpec, simulate
from wthi.dmc import (
    DmcWthi,
    ProductInput,
    achievable_rate,
    dmc_sato_bound,
    mi_profile,
    simplex_grid,
    very_strong_eavesdropping,
    weak_regime_rate,
)
from wthi.errors import DomainError
from wthi.gaussian import GaussianWthi
from wthi.power import grid_oracle_detailed

from channels import blind_eavesdropper_channel, degraded_instance, weak_instance

SIZES = ("nx1", "nx2", "ny1", "ny2")


def spec(n) -> CodebookSpec:
    return CodebookSpec(n=n, r1s=0.5, r1d_prime=0.0, r1d_dprime=0.0,
                        r2=0.25, r2_prime=0.0, r2_dprime=0.25)


def run_spec(n) -> tuple:
    s = spec(n)
    return simulate(blind_eavesdropper_channel(), ProductInput.uniform(2, 2), s, 0, 8), type(s.n)


def run_sizes(name: str, size) -> tuple:
    """A uniform channel whose alphabet ``name`` has ``size`` (4) letters, and each other 2."""
    shape = [4 if other == name else 2 for other in SIZES]
    ch = DmcWthi(**{**dict.fromkeys(SIZES, 2), name: size},
                 transition=np.full(shape, 1.0 / (shape[2] * shape[3])))
    return mi_profile(ch, ProductInput.uniform(ch.nx1, ch.nx2)), type(getattr(ch, name))


def search(grid) -> tuple:
    rate, inp, split = achievable_rate(weak_instance(), grid)
    return rate, inp.px1.tolist(), inp.px2.tolist(), split


GAUSS = GaussianWthi(0.5, 10.0, 10.0, 10.0)
# (operation, count argument, the operation as a function of that argument alone)
COUNTS = [
    ("simplex_grid", "dim", lambda v: simplex_grid(v, 3).tolist()),
    ("simplex_grid", "points_per_coord", lambda v: simplex_grid(3, v).tolist()),
    ("achievable_rate", "grid_per_dim", search),
    ("weak_regime_rate", "grid_per_dim", lambda v: weak_regime_rate(weak_instance(), v)),
    ("very_strong_eavesdropping", "grid_per_dim",
     lambda v: very_strong_eavesdropping(degraded_instance(), v)),
    ("dmc_sato_bound", "coupling_grid", lambda v: dmc_sato_bound(degraded_instance(), v, 5)),
    ("dmc_sato_bound", "input_grid", lambda v: dmc_sato_bound(degraded_instance(), 3, v)),
    ("grid_oracle_detailed", "n1", lambda v: grid_oracle_detailed(GAUSS, v, 5)),
    ("grid_oracle_detailed", "n2", lambda v: grid_oracle_detailed(GAUSS, 5, v)),
    ("CodebookSpec", "n", run_spec),
    ("simulate", "trials", lambda v: simulate(
        blind_eavesdropper_channel(), ProductInput.uniform(2, 2), spec(4), 0, v)),
    *[("DmcWthi", name, lambda v, name=name: run_sizes(name, v)) for name in SIZES],
    ("ProductInput.uniform", "nx1", lambda v: ProductInput.uniform(v, 2).px1.tolist()),
    ("ProductInput.uniform", "nx2", lambda v: ProductInput.uniform(2, v).px2.tolist()),
]
IDS = [f"{operation}.{name}" for operation, name, _ in COUNTS]


@pytest.mark.parametrize("bad", [2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("operation, name, call", COUNTS, ids=IDS)
def test_a_non_integral_count_is_a_domain_error(operation, name, call, bad):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("operation, name, call", COUNTS, ids=IDS)
def test_an_integral_count_of_any_type_gives_the_int_result(operation, name, call):
    expected = call(4)
    for value in (4.0, np.int64(4)):
        assert call(value) == expected
