"""The finite-difference oracle itself, before it judges any backward pass."""

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import max_relative_error, numerical_gradient


class TestNumericalGradient:
    def test_known_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda v: float((v**2).sum()), x)
        npt.assert_allclose(grad, 2 * x, atol=1e-8)

    def test_max_relative_error_metric(self):
        a = np.array([1.0, 2.0])
        assert max_relative_error(a, a) == 0.0
        assert max_relative_error(a, np.array([1.0, 2.2])) == pytest.approx(0.2 / 2.2)
