"""Exception types shared across the package, and the argument checks that raise them."""

import math
import numbers


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DeskScaleError(ValueError):
    """A desk-scale guard was exceeded (alphabet size or enumeration budget)."""


class RegimeMismatchError(ValueError):
    """A closed-form regime formula was applied outside its regime."""


def _require_finite_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _is_integral(value) -> bool:
    """True for an integer or an integral float, not a bool; int skips the slow ABC check."""
    return not isinstance(value, bool) and (isinstance(value, (int, numbers.Integral))
                                            or isinstance(value, float) and value.is_integer())


def _count(name: str, value, least: int) -> int:
    if not _is_integral(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return int(value)


# Most input laws, Sato objective evaluations, oracle grid points or trials one
# call may enumerate: 4-ary inputs at grid 21 are 1771**2 = 3.1M laws,
# dmc_sato_bound(9, 21) counts at most 2,924,496 objectives, 4M trials take 36 MB.
_ENUMERATION_BUDGET = 4_000_000


def _check_budget(count: int, what: str, budget: int = _ENUMERATION_BUDGET) -> None:
    if count > budget:
        raise DeskScaleError(f"{count} {what} exceed the desk-scale budget {budget}")
