"""Secrecy rates, power policies, and capacity bounds for the wiretap channel
with a helping interferer (WT-HI), plus a desk-scale binning-code simulator.

A transmitter sends a confidential message to its receiver while a passive
eavesdropper listens and an independent interferer, knowing nothing of the
message, transmits structured dummy traffic that selectively degrades the
eavesdropper.  The package covers the Gaussian model (achievable rates,
closed-form power control, three computable capacity upper bounds) and
finite-alphabet channels (exact mutual-information analysis, the
double-binning achievable rate, regime special cases, a Sato-type minimax
bound, and a Monte Carlo simulator of the code construction itself).
"""

__version__ = "0.1.0"

from .binning import (
    CodebookSpec,
    Codebooks,
    SimResult,
    build_codebooks,
    result_record,
    simulate,
)
from .bounds import (
    BoundKind,
    SatoEvaluation,
    bound_best,
    bound_main_channel,
    bound_sato,
    bound_z_channel,
    sato_minimize,
)
from .dmc import (
    DmcSatoBound,
    DmcWthi,
    MutualInfoProfile,
    ProductInput,
    achievable_rate,
    achievable_rate_fixed_input,
    dmc_sato_bound,
    mi_profile,
    strong_regime_rate,
    very_strong_eavesdropping,
    weak_regime_rate,
)
from .errors import DeskScaleError, DomainError, RegimeMismatchError
from .gaussian import (
    GaussianWthi,
    PowerAllocation,
    RateSplit,
    Regime,
    awgn_capacity,
    rate_achievable,
    rate_wiretap,
)
from .power import (
    GridOracleResult,
    PolicyIntermediates,
    asymptotic_rate,
    grid_oracle_detailed,
    optimal_power,
)

# every class and function imported above, and nothing else (not the submodules)
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith(__name__ + "."))
