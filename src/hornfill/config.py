"""Default caps and budgets.

All verdicts are relative to explicit truncation caps; the defaults here are
the ones the reports stamp when the caller does not override them.
"""

import os

from .errors import InputError

DEFAULT_DIM_CAP = 4        # simplicial dimension cap for Kan/nerve checks
DEFAULT_LEVEL_CAP = 3      # level cap for simplicial objects (Cech, bar)
DEFAULT_BUDGET = 10_000_000  # candidates a search may try
DEFAULT_PATH_BUDGET = 100_000  # path universe cap for congruence closure
MAX_STANDARD_DIM = 6       # largest standard simplex the engine will build

BUDGET_ENV = "HORNFILL_BUDGET"


def positive_budget(value, source):
    """A budget must be positive; `source` names where it came from."""
    if value <= 0:
        raise InputError(f"{source} must be positive, got {value}")
    return value


def budget_from_env(default=DEFAULT_BUDGET):
    """Budget override via environment, swallowing junk values is not allowed."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None
    return positive_budget(value, BUDGET_ENV)
