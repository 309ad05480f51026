"""The up-front budget rule, ``errors.require_budget``, on the size shapes
of the searches that use it: the wall box (2b + 1)^(rho + 2), the v-perp
box (2b + 1)^(rho + 1) and the decomposition box (2b + 1)^2 (boxes of
dimension 2 to 5), the oracle grid (g + 1) loci, and the rank-2 pairing
values 2 (b // g) + 1."""
import os
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stabkit.errors import BUDGET_ENV, BudgetError, require_budget

SHAPES = st.one_of(
    st.integers(2, 5).map(lambda dim: (lambda b: (2 * b + 1) ** dim, "box", "bound")),
    st.integers(1, 50).map(lambda loci: (lambda g: (g + 1) * loci, "oracle grid", "grid")),
    st.integers(1, 12).map(lambda g: (lambda b: 2 * (b // g) + 1, "root search", "bound")),
)


@given(SHAPES, st.integers(-3, 2000), st.data())
def test_require_budget_matches_brute_force(shape, bound, data):
    size, name, reached = shape
    n = size(max(bound, 0))
    # budgets near the search's own size hit the edge of the rule
    budget = data.draw(st.one_of(st.integers(1, 10 ** 7),
                                 st.integers(max(1, n - 2), n + 2)))
    seen = []

    def counted(b):
        seen.append(b)
        return size(b)

    with mock.patch.dict(os.environ, {BUDGET_ENV: str(budget)}):
        if bound < 0 or n <= budget:
            require_budget(counted, bound, name, "units", reached)
            # a negative bound searches nothing: its size is never asked for
            assert seen == ([] if bound < 0 else [bound])
            return
        with pytest.raises(BudgetError) as err:
            require_budget(counted, bound, name, "units", reached)
    fit = max((b for b in range(bound) if size(b) <= budget), default=-1)
    assert err.value.bound_reached == fit
    assert str(err.value) == (f"{name} of {n} units exceeds the budget of {budget} "
                              f"({reached} reached {fit})")
    assert min(seen) >= 0

