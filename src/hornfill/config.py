"""Default caps and budgets.

All verdicts are relative to explicit truncation caps; the defaults here are
the ones the reports stamp when the caller does not override them.
"""

import os

DEFAULT_DIM_CAP = 4        # simplicial dimension cap for Kan/nerve checks
DEFAULT_LEVEL_CAP = 3      # level cap for simplicial objects (Cech, bar)
DEFAULT_BUDGET = 10_000_000  # node budget for backtracking searches
DEFAULT_PATH_BUDGET = 100_000  # path universe cap for congruence closure
MAX_STANDARD_DIM = 6       # largest standard simplex the engine will build

BUDGET_ENV = "HORNFILL_BUDGET"


def budget_from_env(default=DEFAULT_BUDGET):
    """Budget override via environment, swallowing junk values is not allowed."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        from .errors import InputError

        raise InputError(f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if value <= 0:
        from .errors import InputError

        raise InputError(f"{BUDGET_ENV} must be positive, got {value}")
    return value
