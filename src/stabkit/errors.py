"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: user-input problems exit 1,
computation failures (budgets, degenerate configurations) exit 2. The
enumeration budget that ``BudgetError`` enforces, and the one rule for
searches whose size is known up front (``require_budget``), are set here.
"""
import os
from typing import Callable, Optional


class StabkitError(Exception):
    """Base class for all toolkit errors."""


class LatticeError(StabkitError):
    """Invalid lattice data: wrong signature, odd Gram where even is required,
    dimension mismatches, non-integral results."""


class ChargeError(StabkitError):
    """Invalid charge value or parameters (zero charge where nonzero needed,
    charge outside the allowed half-plane, bad omega)."""


class PresentationError(StabkitError):
    """Malformed category presentation: the data does not support the
    requested filtration or violates a structural invariant."""


class DegenerateError(StabkitError):
    """Degenerate configuration: restricted form degenerate, charge outside
    the good locus, proportional vectors where independence is required."""


class BudgetError(StabkitError):
    """An enumeration exceeded its configured budget."""

    def __init__(self, message: str, bound_reached=None):
        super().__init__(message)
        self.bound_reached = bound_reached


# -- the enumeration budget --------------------------------------------------

DEFAULT_BUDGET = 1 << 20
BUDGET_ENV = "BRIDGELAND_BUDGET"


def effective_budget(budget: Optional[int] = None) -> int:
    """An explicit ``budget`` as given (0 visits nothing), else the positive
    integer in BRIDGELAND_BUDGET, else ``DEFAULT_BUDGET``. ValueError when
    the variable is set to anything but a positive integer."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV)
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV} must be a positive integer, got {env!r}")
    return value


def require_budget(size: Callable[[int], int], bound: int, name: str, unit: str,
                   reached: str = "bound") -> None:
    """Raise ``BudgetError`` before any work when a search of ``size(bound)``
    units exceeds ``effective_budget()``; a negative bound searches nothing.
    Its ``bound_reached`` is the largest bound that fits (-1 if none), found
    by bisection for any nondecreasing ``size``, never evaluated below 0."""
    budget = effective_budget()
    if bound < 0 or size(bound) <= budget:
        return
    fit, over = -1, bound  # size(fit) fits (-1 searches nothing), size(over) does not
    while over - fit > 1:
        mid = (fit + over) // 2
        fit, over = (mid, over) if size(mid) <= budget else (fit, mid)
    raise BudgetError(f"{name} of {size(bound)} {unit} exceeds the budget of {budget} "
                      f"({reached} reached {fit})", bound_reached=fit)
