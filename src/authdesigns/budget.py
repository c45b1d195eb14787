"""Work-budget resolution for operations with superpolynomial worst cases.

Every potentially expensive operation computes an exact upper bound on its
elementary-step count *before* doing any work and compares it against a
budget.  Precedence: explicit argument, then the ``AUTHDESIGNS_BUDGET``
environment variable, then :data:`DEFAULT_BUDGET`.
"""

import os

from .errors import BudgetError, DomainError, StructuralError
from .fileio import check_int, integer, show_int

DEFAULT_BUDGET = 10**8

ENV_VAR = "AUTHDESIGNS_BUDGET"


def charge(required, budget=None, what="computation"):
    """Raise :class:`BudgetError` if ``required`` exceeds the effective
    budget, a positive int.  An ``AUTHDESIGNS_BUDGET`` that `fileio.integer`
    does not read is malformed input: StructuralError."""
    if budget is None:
        raw = os.environ.get(ENV_VAR)
        try:
            budget = DEFAULT_BUDGET if raw is None else integer(raw)
        except ValueError:
            raise StructuralError(f"{ENV_VAR} must be an integer, got {show_int(raw)}")
    limit = check_int("budget", budget, 1, DomainError)
    if required > limit:
        raise BudgetError(f"{what} needs {show_int(required)} elementary steps, "
                          f"budget is {show_int(limit)}",
                          required=required, budget=limit)
