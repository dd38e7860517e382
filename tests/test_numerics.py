"""The transfer inequality's two integer forms, the test oracles in conftest
that the acceptance and del Pezzo tests check verdicts against."""

import pytest
from hypothesis import given, strategies as st

from conftest import CohomologyInput, ceil_half, chi_criterion_holds, h0_criterion_holds


class TestCeilHalf:
    @given(st.integers(min_value=-10_000, max_value=10_000))
    def test_matches_true_ceiling(self, n):
        assert ceil_half(n) == (n // 2) + (n % 2)

    def test_samples(self):
        assert ceil_half(-2) == -1
        assert ceil_half(3) == 2
        assert ceil_half(0) == 0


class TestH0Criterion:
    def test_small_positive(self):
        assert h0_criterion_holds(CohomologyInput(2, 0, 0, 0))

    def test_large_product_space_fails(self):
        assert not h0_criterion_holds(CohomologyInput(1, 10, 0, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CohomologyInput(-1, 0, 0, 0)


class TestChiCriterion:
    def test_equality_fails(self):
        assert not chi_criterion_holds(5, 0, 5)

    def test_strict(self):
        assert chi_criterion_holds(5, 1, 5)

    def test_rejects_negative_h1(self):
        with pytest.raises(ValueError):
            chi_criterion_holds(1, -1, 0)

