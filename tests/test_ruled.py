import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest
from conftest import counted_nef_threshold, replayed_degree_bound

from sostransfer import ruled
from sostransfer.ruled import (
    RuledData,
    RuledDataError,
    ScheduleError,
    build_schedule,
    descent_margin,
    exceptional_margin,
    genus_example_data,
    minimal_d,
    minimal_transfer_s,
    minimal_transfer_t,
    multiplier_degree_bound,
    nef_threshold,
)

ELLIPTIC = genus_example_data("elliptic_segre")
G3M1 = RuledData(4, 4, -2, 2)  # canonical_times_line in genus 3, m = 1: t = 190
G3M2 = RuledData(8, 24, -2, 1)  # the same family with m = 2: t = 615


@lru_cache(maxsize=None)
def has_schedule(data: RuledData, d: int) -> bool:
    try:
        build_schedule(data, d)
    except ScheduleError:
        return False
    return True


def assert_blocks_match_schedules(data: RuledData, degrees) -> None:
    """Each degree lies in the isqrt block of its ladder budget, and the
    block model gives it a schedule exactly when ``build_schedule`` does."""
    t = minimal_transfer_t(minimal_transfer_s(data))
    blocks = {}
    for d in degrees:
        lam = 2 * d * data.minusK_dot_H - data.chiO
        r = isqrt(max(lam, 0))
        if r not in blocks:
            blocks[r] = ruled._block(data, r, t)
        start, end, lo, hi = blocks[r]
        assert lam < 0 or start <= d <= end, (data, d)
        assert (lo <= d <= hi) == has_schedule(data, d), (data, d, (start, end, lo, hi))


def random_generic_corpus(seed: int, size: int) -> list[RuledData]:
    """Non-elliptic data with s <= 3, cycling through H.(H+K) < 0, = 0 (so
    chi(O) = 1) and > 0; -K.H up to 20,000, and ell up to 10^6."""
    rng = random.Random(seed)
    corpus = []
    for i in range(size):
        a = 20_000 if i < 3 else rng.choice((rng.randint(1, 30), rng.randint(1, 20_000)))
        b = (-2 * rng.randint(1, 3 * a), 0, 2 * rng.randint(1, max(1, (3 * a - 1) // 2)))[i % 3]
        chi = 1 if b == 0 else rng.randint(-20, 1)
        ell = rng.choice((0, 1, 2, rng.randint(0, 40), rng.randint(0, 10**6)))
        corpus.append(RuledData(a, b, chi, ell))
    return corpus


class TestData:
    def test_elliptic_preset(self):
        assert (
            ELLIPTIC.minusK_dot_H,
            ELLIPTIC.H_dot_HplusK,
            ELLIPTIC.chiO,
            ELLIPTIC.ell,
        ) == (6, 0, 0, 1)
        assert ELLIPTIC.sectional_genus == 1
        assert ELLIPTIC.elliptic_mode

    def test_canonical_family_ratio(self):
        for g, m in ((3, 1), (3, 5), (4, 2)):
            data = genus_example_data("canonical_times_line", g, m)
            assert data.H_dot_HplusK == (2 * m - 1) * data.minusK_dot_H
            assert data.chiO == 1 - g

    def test_canonical_family_s(self):
        data = genus_example_data("canonical_times_line", 3, 5)
        assert minimal_transfer_s(data) == 10

    def test_minimal_transfer_s_matches_counting(self):
        # the closed form against counting s up from 1
        for minus_k_h in range(1, 25):
            for h_hk in range(-30, 120, 2):
                s = 1
                while s * minus_k_h <= h_hk:
                    s += 1
                assert minimal_transfer_s(RuledData(minus_k_h, h_hk, 0, 1)) == s

    def test_rejects_bad_data(self):
        with pytest.raises(RuledDataError):
            RuledData(0, 0, 0, 1)
        with pytest.raises(RuledDataError):
            RuledData(4, 3, 0, 1)  # odd adjoint pairing
        with pytest.raises(RuledDataError):
            RuledData(4, 0, 2, 1)  # chi(O) > 1 cannot be ruled
        with pytest.raises(RuledDataError):
            genus_example_data("canonical_times_line", 2, 1)

    def test_json_round_trip(self):
        data = RuledData.from_json_dict(ELLIPTIC.to_json_dict())
        assert (data.minusK_dot_H, data.H_dot_HplusK, data.chiO, data.ell) == (6, 0, 0, 1)


class TestNefThreshold:
    def test_elliptic(self):
        assert nef_threshold(6, -6, 0) == 1

    def test_canonical_genus_three(self):
        assert nef_threshold(8, -4, -16) == 2

    def test_closed_form_matches_counting(self):
        for a in range(1, 40):
            for b in range(-40, 41):
                for c in range(-60, 61):
                    assert nef_threshold(a, b, c) == counted_nef_threshold(a, b, c), (a, b, c)


class TestMargins:
    def test_exceptional_base_value(self):
        assert exceptional_margin(ELLIPTIC, 5, 0, 2) == 54

    def test_exceptional_growth_in_degree(self):
        values = [exceptional_margin(ELLIPTIC, d, 0, 2) for d in range(5, 15)]
        assert all(b - a == 12 for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_k(self):
        margins = [exceptional_margin(ELLIPTIC, 30, 0, k) for k in range(1, 10)]
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_descent_constant_for_elliptic(self):
        for d in range(5, 51):
            assert descent_margin(ELLIPTIC, d, 2) == 2

    def test_descent_zero_without_cut(self):
        assert descent_margin(ELLIPTIC, 12, 0) == 0

    def test_descent_negative_for_positive_genus(self):
        data = RuledData(20, 8, -2, 2)
        assert descent_margin(data, 50, 1) < 0

    def test_preconditions(self):
        with pytest.raises(ScheduleError):
            exceptional_margin(ELLIPTIC, 2, 0, 2)
        assert exceptional_margin(ELLIPTIC, 3, 0, 2) == 30  # boundary accepted
        with pytest.raises(ScheduleError):
            descent_margin(ELLIPTIC, 4, 2)


class TestSchedules:
    def test_elliptic_ladder(self):
        sched = build_schedule(ELLIPTIC, 5)
        assert sched.mode == "elliptic"
        assert sched.s == 1
        assert sched.ladder == ((5, 0), (5, -2), (4, 0))
        assert sched.step_margins == (54,) and sched.final_margin == 2

    def test_generic_t_for_elliptic(self):
        # harmonic tail must exceed 4: first harmonic number above 5 is H_83
        assert minimal_transfer_t(1) == 82

    def test_integer_harmonic_fallback_matches_fractions(self):
        # the exact test the bounds fall back to when they straddle, which
        # they almost never do, against the Fraction sum
        total = Fraction(0)
        for t in range(1, 301):
            total += Fraction(1, t + 1)
            for s in range(51):
                expected = total > 2 and (total - 2) ** 2 > 4 * s
                assert ruled._harmonic_exceeds(t, s) == expected, (t, s)

    def test_elliptic_below_threshold(self):
        with pytest.raises(ScheduleError):
            build_schedule(ELLIPTIC, 4)

    def test_minimal_d_elliptic(self):
        assert minimal_d(ELLIPTIC) == 5

    def test_generic_schedule_interval_property(self):
        data = genus_example_data("canonical_times_line", 3, 1)
        d = minimal_d(data)
        sched = build_schedule(data, d)
        lam = 2 * d * data.minusK_dot_H - data.chiO
        for j, kj in enumerate(sched.k, start=1):
            assert (2 * j * (kj + 1)) ** 2 <= lam
            assert (2 * (j + 1) * kj) ** 2 >= lam
        q = sum(Fraction(1, i) for i in range(1, sched.t + 2))
        m_t = sched.m[-1]
        assert 4 * m_t * m_t <= q * q * lam
        assert q * q * lam < (d - data.ell) ** 2

    def test_ladder_k_matches_a_root_per_step(self):
        # k_j = isqrt(L) // 2j - 1 from one root per ladder, against the
        # per-step isqrt(L // (2j)^2) - 1, on the ladders from each minimal
        # degree up and on huge degrees
        built = 0
        for m in (1, 2):
            data = genus_example_data("canonical_times_line", 3, m)
            d0 = minimal_d(data)
            for d in [*range(d0, d0 + 25), 10**15 + 7, 10**30 + 1]:
                sched = build_schedule(data, d)
                lam = 2 * d * data.minusK_dot_H - data.chiO
                assert sched.k == tuple(isqrt(lam // (4 * j * j)) - 1 for j in range(1, sched.t + 1))
                built += 1
        assert built == 54

    def test_minimal_d_monotone_under_doubling(self):
        data = genus_example_data("canonical_times_line", 3, 1)
        doubled = RuledData(2 * data.minusK_dot_H, data.H_dot_HplusK, data.chiO, data.ell)
        assert minimal_d(doubled) <= minimal_d(data)

    def test_schedules_are_not_monotone_in_degree(self):
        # whether a degree has a schedule is not monotone in d: on the
        # canonical genus-3 data, a degree between working ones fails when
        # a step's k_j misses its lower bound
        data = RuledData(4, 4, -2, 2)
        assert data == genus_example_data("canonical_times_line", 3, 1)
        for d in (2_285_826_497, *range(2_158_442_105, 2_158_442_116), 2_620_156_050):
            build_schedule(data, d)
        with pytest.raises(ScheduleError, match="k_190 misses its lower bound"):
            build_schedule(data, 2_285_826_498)
        for d in (2_158_442_104, 2_620_156_049):
            with pytest.raises(ScheduleError):
                build_schedule(data, d)

    def test_minimal_d_self_consistent(self):
        data = genus_example_data("canonical_times_line", 3, 1)
        d = minimal_d(data)
        build_schedule(data, d)
        with pytest.raises(ScheduleError):
            build_schedule(data, max(1, d // 4))


class TestBlocks:
    # degrees where schedules start or stop near the minimal degree: on each
    # data, the first of a window of 11 degrees with schedules, the degree a
    # search over such windows used to return, a degree past a gap (G3M1
    # only) and the least degree from which every degree has a schedule
    THRESHOLDS = [
        *(pytest.param(G3M1, d, id=f"G3M1-{d}") for d in (2_158_442_105, 2_280_015_392, 2_285_826_498, 2_620_156_050)),
        *(pytest.param(G3M2, d, id=f"G3M2-{d}") for d in (128_308_672_804, 131_773_356_036, 143_286_853_557)),
    ]

    @pytest.mark.parametrize("data, threshold", THRESHOLDS)
    def test_blocks_match_schedules_around_thresholds(self, data, threshold):
        assert has_schedule(data, threshold - 1) != has_schedule(data, threshold)
        assert_blocks_match_schedules(data, range(threshold - 3000, threshold + 3001))

    def test_blocks_match_schedules_on_random_data(self):
        covered = set()
        for data in random_generic_corpus(1717, 36):
            t = minimal_transfer_t(minimal_transfer_s(data))
            r = isqrt(2 * minimal_d(data) * data.minusK_dot_H - data.chiO)
            degrees = set(range(-3, 40))
            for block in range(r - 30, r + 3):
                start, end, lo, hi = ruled._block(data, block, t)
                degrees.update(d for d in (start, end, lo - 1, lo, hi, hi + 1) if start <= d <= end)
            assert_blocks_match_schedules(data, sorted(degrees))
            covered.add((data.H_dot_HplusK > 0) - (data.H_dot_HplusK < 0))
        assert covered == {-1, 0, 1}

    @pytest.mark.parametrize(
        "data, expected", [(G3M1, 2_620_156_050), (G3M2, 143_286_853_557), (ELLIPTIC, 5)], ids=("G3M1", "G3M2", "elliptic")
    )
    def test_minimal_d_exact(self, data, expected):
        assert minimal_d(data) == expected
        assert not has_schedule(data, expected - 1)
        assert all(has_schedule(data, d) for d in range(expected, expected + 3001))

    def test_minimal_d_on_random_data(self):
        for data in random_generic_corpus(2929, 24):
            d = minimal_d(data)
            assert not has_schedule(data, d - 1), data
            assert all(has_schedule(data, x) for x in range(d, d + 20)), data

    def test_minimal_d_elliptic_closed_form(self):
        for a in range(1, 13):
            for chi in range(-10, 1):
                for ell in range(6):
                    data = RuledData(a, 0, chi, ell)
                    d = minimal_d(data)
                    assert not has_schedule(data, d - 1)
                    assert all(has_schedule(data, x) for x in range(d, d + 30))

    def test_minimal_d_scan_budget(self, monkeypatch):
        # -K.H this large puts r_C4 above 4t^2 + 2t, so the scan reads 17
        # blocks of t = 82 ladder steps
        data = RuledData(20_000, 0, 1, 3)
        monkeypatch.setattr(ruled, "MAX_LADDER_STEPS", 17 * 82)
        assert minimal_d(data) == 995_535
        monkeypatch.setattr(ruled, "MAX_LADDER_STEPS", 17 * 82 - 1)
        with pytest.raises(RuledDataError, match="budget"):
            minimal_d(data)


class TestDegreeBound:
    def test_empty_chain(self):
        assert multiplier_degree_bound(ELLIPTIC, 5, 5).total_H_degree == 0

    def test_elliptic_closed_form(self):
        # per level delta: one step of H-degree delta and one of delta-1
        bound = multiplier_degree_bound(ELLIPTIC, 10, 5)
        assert bound.total_H_degree == 10 * 10 - 25
        assert bound.steps_counted == 10
        assert bound.steps_per_level == 2
        # the looser quoted step count uses the generic ladder length t
        assert bound.steps_quoted == (82 + 2) * 5

    def test_quadratic_growth_window(self):
        e50 = multiplier_degree_bound(ELLIPTIC, 50, 5).total_H_degree
        e100 = multiplier_degree_bound(ELLIPTIC, 100, 5).total_H_degree
        assert 3.5 <= e100 / e50 <= 4.5

    def test_rejects_inverted_range(self):
        with pytest.raises(RuledDataError, match="d must be at least d0"):
            multiplier_degree_bound(ELLIPTIC, 5, 6)

    def test_ladder_step_budget(self, monkeypatch):
        # every level from minimal_d on has a schedule, so the chain reads
        # each isqrt block of its levels once, t = 82 ladder steps a block;
        # the elliptic check reads no block and charges nothing
        data, d0 = RuledData(20_000, 0, 1, 3), 995_535
        blocks = len({isqrt(2 * level * 20_000 - 1) for level in range(d0 + 1, d0 + 101)})
        monkeypatch.setattr(ruled, "MAX_LADDER_STEPS", blocks * 82)
        assert multiplier_degree_bound(data, d0 + 100, d0).steps_counted == 83 * 100
        assert multiplier_degree_bound(ELLIPTIC, 10**9, 5).total_H_degree == 10**18 - 25
        monkeypatch.setattr(ruled, "MAX_LADDER_STEPS", blocks * 82 - 1)
        with pytest.raises(RuledDataError, match="budget"):
            multiplier_degree_bound(data, d0 + 100, d0)
        monkeypatch.setattr(ruled, "MAX_LADDER_STEPS", 82)
        assert minimal_transfer_t.__wrapped__(1) == 82
        monkeypatch.setattr(ruled, "MAX_LADDER_STEPS", 81)
        with pytest.raises(RuledDataError, match="budget"):
            minimal_transfer_t.__wrapped__(1)

    def test_rejects_base_below_minimal(self):
        with pytest.raises(ScheduleError):
            multiplier_degree_bound(ELLIPTIC, 10, 3)

    @staticmethod
    def bound_or_error(data, d, d0):
        try:
            bound = multiplier_degree_bound(data, d, d0)
        except ScheduleError as exc:
            return str(exc)
        return bound.total_H_degree, bound.steps_counted, bound.steps_per_level

    @staticmethod
    def replayed_or_error(data, d, d0):
        try:
            return replayed_degree_bound(data, d, d0)
        except ScheduleError as exc:
            return str(exc)

    @pytest.mark.parametrize(
        "data, d, d0",
        [
            (G3M1, 2_158_442_115, 2_158_442_104),  # d0 itself has no schedule
            (G3M1, 2_280_015_452, 2_280_015_392),
            (G3M2, 131_773_356_076, 131_773_356_036),
            (G3M2, 143_286_853_600, 143_286_853_556),
            (ELLIPTIC, 40, 4),
        ],
    )
    def test_matches_replay_below_minimal_d(self, data, d, d0):
        assert d0 < minimal_d(data)
        got = self.bound_or_error(data, d, d0)
        assert isinstance(got, tuple) and got == replayed_degree_bound(data, d, d0)

    @pytest.mark.parametrize(
        "data, d, d0, first_failing",
        [
            (G3M1, 2_285_826_600, 2_285_826_400, 2_285_826_600),
            (G3M1, 2_158_442_110, 2_158_442_100, 2_158_442_104),
            (G3M1, 2_620_156_060, 2_620_156_040, 2_620_156_049),
            (G3M2, 143_286_853_560, 143_286_853_550, 143_286_853_556),
            (ELLIPTIC, 10, 3, 4),
        ],
    )
    def test_gap_raises_at_its_first_failing_level(self, data, d, d0, first_failing):
        message = self.bound_or_error(data, d, d0)
        assert message == self.replayed_or_error(data, d, d0)
        with pytest.raises(ScheduleError) as exc:
            build_schedule(data, first_failing)
        assert message == str(exc.value)
        assert has_schedule(data, first_failing + 1) or first_failing == d

    def test_matches_replay_on_random_ranges(self):
        rng = random.Random(3131)
        raised = 0
        for data in random_generic_corpus(3131, 30):
            top = minimal_d(data)
            for _ in range(4):
                d = rng.randint(max(1, top // 2), top + 100)
                d0 = d - rng.randint(0, 60)
                got = self.bound_or_error(data, d, d0)
                assert got == self.replayed_or_error(data, d, d0), (data, d, d0)
                raised += isinstance(got, str)
        assert 0 < raised < 120
