import math

import numpy as np
import pytest

from eqarea.errors import BracketingFailure
from eqarea.rootfind import bisect, poly_roots


def test_bisect_simple():
    root = bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_bisect_needs_sign_change():
    with pytest.raises(BracketingFailure):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_poly_roots_inside_open_interval():
    # (u + 1)(u - 0.5)(u - 2), coefficients low to high degree
    coeffs = (1.0, -1.5, -1.5, 1.0)
    assert poly_roots(coeffs, -2.0, 3.0) == pytest.approx([-1.0, 0.5, 2.0], abs=1e-15)
    assert poly_roots(coeffs, -1.0, 2.0) == pytest.approx([0.5], abs=1e-15)


def test_poly_roots_double_root_counts_once():
    assert poly_roots((0.09, -0.6, 1.0), 0.0, 1.0) == pytest.approx([0.3], abs=1e-15)
    assert poly_roots((0.0, 0.0, 12.0), -1.0, 1.0) == [0.0]


def test_poly_roots_skips_complex_pairs_and_constants():
    assert poly_roots((1.0, 0.0, 1.0), -5.0, 5.0) == []
    assert poly_roots((2.0, 0.0, 0.0), -5.0, 5.0) == []
    assert poly_roots((0.0,), -5.0, 5.0) == []


def test_poly_roots_polishes_to_the_last_bits():
    # the companion eigenvalues alone are off by a few 1e-15 here
    roots = np.array([1.0 / 3.0, 0.35, 2.0])
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    assert poly_roots(coeffs, 0.0, 3.0) == pytest.approx(roots, abs=1e-15)
