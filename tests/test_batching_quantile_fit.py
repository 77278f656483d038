"""The numpy quantile-regression fit against two references.

``fit_quantile_line`` claims the exact optimum of the pinball loss.  The
all-pairs search below is the definition (some optimal line passes through
two data points, or is flat through one when only one batch size was seen)
and runs everywhere; ``scipy.optimize.linprog`` on the standard LP is the
solver the fit replaced and runs where scipy is installed.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.batching.controllers import fit_quantile_line


def pinball_loss(x, y, intercept, slope, quantile):
    residuals = y - (intercept + slope * x)
    return float(np.sum(np.where(residuals >= 0, quantile, quantile - 1.0) * residuals))


def all_pairs_loss(x, y, quantile):
    """Least pinball loss over the lines through two points, and the flat ones."""
    best = min(pinball_loss(x, y, level, 0.0, quantile) for level in y)
    for i, j in itertools.combinations(range(len(x)), 2):
        if x[i] != x[j]:
            slope = (y[j] - y[i]) / (x[j] - x[i])
            best = min(best, pinball_loss(x, y, y[i] - slope * x[i], slope, quantile))
    return best


def linprog_loss(x, y, quantile):
    """The LP the fit used to hand to HiGHS: min q·u + (1-q)·v, y - a - b·x = u - v."""
    from scipy.optimize import linprog

    n = len(x)
    cost = np.concatenate([[0.0, 0.0], np.full(n, quantile), np.full(n, 1.0 - quantile)])
    a_eq = np.zeros((n, 2 + 2 * n))
    a_eq[:, 0] = 1.0
    a_eq[:, 1] = x
    a_eq[:, 2 : 2 + n] = np.eye(n)
    a_eq[:, 2 + n :] = -np.eye(n)
    bounds = [(None, None), (None, None)] + [(0.0, None)] * (2 * n)
    result = linprog(cost, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    assert result.success
    return pinball_loss(x, y, result.x[0], result.x[1], quantile)


def windows(max_size):
    """A controller window: repeated integer batch sizes, positive latencies."""
    return st.integers(2, max_size).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 64), min_size=n, max_size=n),
            st.lists(
                st.floats(0.01, 1000.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            ),
            st.floats(0.001, 0.999),
        )
    )


def assert_same_loss(ours, reference, y):
    # Relative to the reference; a perfect fit (loss 0) is compared on the
    # scale of the data instead.
    assert abs(ours - reference) <= 1e-9 * max(reference, float(np.abs(y).sum()) * 1e-3)


@given(windows(12))
def test_fit_is_the_all_pairs_optimum(window):
    sizes, latencies, quantile = window
    x, y = np.array(sizes, dtype=float), np.array(latencies)
    intercept, slope = fit_quantile_line(x, y, quantile)
    assert np.isfinite(intercept) and np.isfinite(slope)
    assert_same_loss(
        pinball_loss(x, y, intercept, slope, quantile), all_pairs_loss(x, y, quantile), y
    )


@given(windows(200))
def test_fit_matches_linprog(window):
    pytest.importorskip("scipy.optimize")
    sizes, latencies, quantile = window
    x, y = np.array(sizes, dtype=float), np.array(latencies)
    intercept, slope = fit_quantile_line(x, y, quantile)
    assert_same_loss(
        pinball_loss(x, y, intercept, slope, quantile), linprog_loss(x, y, quantile), y
    )


def test_one_batch_size_fits_the_quantile_of_the_latencies():
    x = np.full(5, 8.0)
    y = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    assert fit_quantile_line(x, y, 0.5) == (3.0, 0.0)
    assert fit_quantile_line(x, y, 0.99) == (5.0, 0.0)
