import random
import time

import pytest

from conftest import chi_criterion_holds, random_effective_divisor
from sostransfer import delpezzo
from sostransfer._intlinalg import mat_mul
from sostransfer.delpezzo import (
    CATALOGUE_TABLE,
    MAX_WALK_STEPS,
    DelPezzoError,
    NotCataloguedError,
    NotConjugationFixedError,
    NotContractibleError,
    NotEffectiveError,
    _first_nonpositive,
    ample_step,
    catalogue,
    certificate_kind,
    chi,
    conic_bundles_real,
    contract_along,
    interval_kind,
    is_ample,
    is_nef,
    minus_one_curves,
    real_negative_curves,
    surface_from_name,
    transfer_sequence,
    transfer_to_json_dict,
)

CLASSICAL_CURVE_COUNTS = {3: 27, 4: 16, 5: 10, 6: 6, 7: 3}


class TestCatalogue:
    def test_all_rows_build(self):
        assert len(catalogue()) == 24

    def test_involution_axioms(self):
        from sostransfer._intlinalg import identity

        for s in catalogue():
            n = s.rank
            assert mat_mul(s.tau, s.tau) == identity(n)
            taut = tuple(tuple(s.tau[j][i] for j in range(n)) for i in range(n))
            assert mat_mul(mat_mul(taut, s.gram), s.tau) == s.gram
            assert s.tau_image(s.K) == s.K

    def test_real_ranks_and_curve_counts(self):
        for name, degree, rho, n_real in CATALOGUE_TABLE:
            s = surface_from_name(name)
            assert s.degree == degree
            assert s.real_rank == rho
            reals, _ = real_negative_curves(s)
            assert len(reals) == n_real

    def test_complex_curve_counts(self):
        for s in catalogue():
            expected = CLASSICAL_CURVE_COUNTS.get(s.degree)
            if expected is not None and s.name.startswith(("P2(", "D", "Q31(0,", "Q22(0,")):
                assert len(minus_one_curves(s)) == expected

    def test_minimal_surfaces_have_no_curves(self):
        for name in ("P2", "Q22", "Q31"):
            assert minus_one_curves(surface_from_name(name)) == ()

    def test_named_examples(self):
        s = surface_from_name("P2(6,0)")
        assert (s.degree, s.rank, s.real_rank) == (3, 7, 7)
        d = surface_from_name("D")
        assert (d.degree, d.real_rank) == (4, 2)
        q = surface_from_name("Q31(0,2)")
        assert (q.degree, q.real_rank) == (6, 2)

    def test_unknown_name(self):
        with pytest.raises(NotCataloguedError):
            surface_from_name("P2(7,0)")
        with pytest.raises(NotCataloguedError):
            surface_from_name("X17")

    def test_curve_pair_intersections_bounded(self):
        # any two (-1)-curves on a catalogued surface meet in at most one point
        for s in catalogue():
            curves = minus_one_curves(s)
            for i, c in enumerate(curves):
                for c2 in curves[i + 1 :]:
                    assert 0 <= s.intersect(c, c2) <= 1

    def test_dejonquieres_pairings(self):
        d = surface_from_name("D")
        for c in minus_one_curves(d):
            assert d.intersect(c, d.tau_image(c)) == 1


class TestIntersections:
    def test_canonical_self_intersection(self):
        s = surface_from_name("P2(6,0)")
        assert s.intersect(s.K, s.K) == 3

    def test_hyperplane_and_exceptional(self):
        s = surface_from_name("P2(6,0)")
        h = (1, 0, 0, 0, 0, 0, 0)
        e1 = (0, 1, 0, 0, 0, 0, 0)
        assert s.intersect(h, e1) == 0
        assert s.intersect(e1, e1) == -1

    def test_quadric_rulings(self):
        s = surface_from_name("Q22")
        assert s.intersect((1, 0), (0, 1)) == 1
        assert s.intersect((1, 0), (1, 0)) == 0

    def test_dimension_mismatch(self):
        s = surface_from_name("Q22")
        with pytest.raises(DelPezzoError):
            s.intersect((1, 0, 0), (0, 1))


class TestConicBundles:
    def test_blowup_of_plane(self):
        s = surface_from_name("P2(1,0)")
        assert conic_bundles_real(s) == ((1, -1),)
        assert interval_kind(s.name) == "full_line"

    def test_blown_up_sphere(self):
        s = surface_from_name("Q31(0,2)")
        assert conic_bundles_real(s) == ((1, 1, -1, -1),)
        assert interval_kind(s.name) == "one_interval"

    def test_disconnected_surface(self):
        s = surface_from_name("D")
        assert conic_bundles_real(s) == ((1, -1, 0, 0, 0, 0), (2, 0, -1, -1, -1, -1))
        assert interval_kind(s.name) == "two_intervals"

    def test_interval_kind_decides_certificate_kind(self):
        certificate = {"full_line": "sos", "one_interval": "modified_1_interval", "two_intervals": "modified_2_interval"}
        kinds = {name: interval_kind(name) for name, *_ in CATALOGUE_TABLE}
        assert {name: kind for name, kind in kinds.items() if kind != "full_line"} == {
            "Q31(0,2)": "one_interval",
            "Q31(0,4)": "one_interval",
            "D": "two_intervals",
            "D(1,0)": "two_intervals",
        }
        for name, kind in kinds.items():
            assert certificate_kind(name) == certificate[kind]

    def test_no_real_bundles_on_sphere_or_odd_blowup(self):
        assert conic_bundles_real(surface_from_name("Q31")) == ()
        assert conic_bundles_real(surface_from_name("P2(0,2)")) == ()


class TestNefAmple:
    def test_anticanonical_is_ample_everywhere(self):
        for s in catalogue():
            assert is_ample(s, s.minus_K)
            assert is_nef(s, s.minus_K)

    def test_exceptional_not_nef(self):
        s = surface_from_name("P2(1,0)")
        assert not is_nef(s, (0, 1))

    def test_ruling_pullback_nef_not_ample(self):
        s = surface_from_name("P2(1,0)")
        assert is_nef(s, (1, -1))
        assert not is_ample(s, (1, -1))


class TestChi:
    def test_structure_sheaf(self):
        for s in catalogue():
            assert chi(s, (0,) * s.rank) == 1

    def test_anticanonical_on_cubic(self):
        s = surface_from_name("P2(6,0)")
        assert chi(s, s.minus_K) == 4

    def test_quadratic_in_multiple(self):
        from fractions import Fraction

        rng = random.Random(7)
        for s in (surface_from_name("P2(2,4)"), surface_from_name("D(1,0)")):
            d = random_effective_divisor(s, rng)
            c1 = chi(s, d)
            c2 = chi(s, tuple(2 * x for x in d))
            a2 = Fraction(c2 - 2 * c1 + 1, 2)
            a1 = Fraction(c1 - 1) - a2
            for m in (3, 4):
                expected = 1 + a1 * m + a2 * m * m
                assert chi(s, tuple(m * x for x in d)) == expected


def _opening_subtractions(s, d):
    """The witnesses of a walk's opening subtractions and the divisor of its
    first other step: the negative curves stripped off d and the nef residual."""
    steps = transfer_sequence(s, d).steps
    first = next(i for i, st in enumerate(steps) if st.kind != "subtract_negative_curve")
    return tuple(w for st in steps[:first] for w in st.witness), steps[first].divisor


class TestReduceToNef:
    """The subtractions that open a walk reduce the divisor to a nef one."""

    def test_nef_fixpoint(self):
        s = surface_from_name("P2(1,0)")
        assert _opening_subtractions(s, (1, -1)) == ((), (1, -1))

    def test_double_exceptional(self):
        s = surface_from_name("P2(1,0)")
        assert _opening_subtractions(s, (0, 2)) == (((0, 1), (0, 1)), (0, 0))

    def test_negative_exceptional(self):
        s = surface_from_name("P2(1,0)")
        with pytest.raises(NotEffectiveError):
            transfer_sequence(s, (0, -1))

    def test_conjugate_pair_subtraction(self):
        s = surface_from_name("P2(1,2)")
        subtracted, residual = _opening_subtractions(s, (0, 0, 1, 1))
        assert residual == (0, 0, 0, 0)
        assert len(subtracted) == 2

    def test_rejects_non_real(self):
        s = surface_from_name("P2(1,2)")
        with pytest.raises(NotConjugationFixedError):
            transfer_sequence(s, (0, 0, 1, 0))


class TestAmpleStep:
    def test_cubic_anticanonical(self):
        s = surface_from_name("P2(6,0)")
        step = ample_step(s, s.minus_K)
        assert s.intersect(step.C, step.C) == -1
        e = step.E
        assert s.intersect(e, e) == 0 and s.intersect(s.minus_K, e) == 2
        assert step.check["holds"]
        assert step.check["two_E_dot_M"] >= 0
        assert step.check["chi_2E"] - step.check["chi_2E_minus_M"] >= 1

    def test_blown_up_sphere_uses_bundle(self):
        s = surface_from_name("Q31(0,2)")
        step = ample_step(s, s.minus_K)
        assert step.C == (1, 1, -1, -1)
        assert step.E == (1, 1, 0, 0)

    def test_plane_hyperplane(self):
        s = surface_from_name("P2")
        step = ample_step(s, (1,))
        assert step.C == (1,) and step.E == (0,)

    def test_requires_ample(self):
        s = surface_from_name("P2(1,0)")
        with pytest.raises(DelPezzoError):
            ample_step(s, (1, -1))


class TestContraction:
    def test_basis_curve(self):
        s = surface_from_name("P2(2,0)")
        con = contract_along(s, (0, 0, 1))
        assert con.target.name == "P2(1,0)"
        assert con.push((1, 0, 0)) == (1, 0)

    def test_conjugate_pair(self):
        s = surface_from_name("P2(1,2)")
        con = contract_along(s, ((0, 0, 1, 0), (0, 0, 0, 1)))
        assert con.target.name == "P2(1,0)"

    def test_line_through_two_points(self):
        s = surface_from_name("P2(2,0)")
        con = contract_along(s, (1, -1, -1))
        assert con.target.name == "Q22"
        la = con.push((1, -1, 0))
        lb = con.push((1, 0, -1))
        assert con.target.intersect(la, lb) == 1
        assert con.target.intersect(la, la) == 0

    def test_pushforward_preserves_pairings(self):
        s = surface_from_name("P2(6,0)")
        c = (0, 0, 0, 0, 0, 0, 1)
        con = contract_along(s, c)
        assert con.target.degree == 4
        others = [x for x in minus_one_curves(s) if s.intersect(x, c) == 0][:6]
        for a in others:
            for b in others:
                assert s.intersect(a, b) == con.target.intersect(con.push(a), con.push(b))

    def test_rejects_non_curve(self):
        s = surface_from_name("P2(2,0)")
        with pytest.raises(NotContractibleError):
            contract_along(s, (1, 0, 0))

    def test_rejects_meeting_pair(self):
        s = surface_from_name("D")
        c = minus_one_curves(s)[0]
        with pytest.raises(NotContractibleError):
            contract_along(s, (c, s.tau_image(c)))

    def test_caches_bounded_and_image_lattices_dropped(self):
        import gc

        from sostransfer import delpezzo

        assert delpezzo._contract.cache_info().maxsize is not None
        assert delpezzo._classes.cache_info().maxsize is not None
        s = surface_from_name("P2(4,2)")
        reals, pairs = real_negative_curves(s)
        for spec in reals + pairs:
            contract_along(s, spec)
        gc.collect()
        kept = [o for o in gc.get_objects() if isinstance(o, delpezzo.SurfaceModel) and o.name == "?"]
        assert kept == []


class TestTransferSequence:
    def test_blown_up_sphere_ladder(self):
        s = surface_from_name("Q31(0,2)")
        t = transfer_sequence(s, s.minus_K)
        amples = [st for st in t.steps if st.kind == "ample_step"]
        assert amples[0].divisor == (2, 2, -1, -1)
        assert amples[0].result == (1, 1, 0, 0)
        assert amples[1].divisor == (1, 1) and amples[1].result == (0, 0)
        assert t.terminal_kind == "zero"
        assert t.certificate_kind == "modified_1_interval"

    def test_cubic_anticanonical(self):
        s = surface_from_name("P2(6,0)")
        t = transfer_sequence(s, s.minus_K)
        assert t.terminal_kind == "conic_bundle_multiple"
        assert t.certificate_kind == "sos"
        assert t.chain_length <= 3

    def test_disconnected_cubic(self):
        s = surface_from_name("D(1,0)")
        t = transfer_sequence(s, s.minus_K)
        assert t.certificate_kind == "modified_2_interval"

    def test_certificate_kind_table(self):
        assert certificate_kind("D") == "modified_2_interval"
        assert certificate_kind("Q31(0,4)") == "modified_1_interval"
        assert certificate_kind("P2(3,2)") == "sos"
        assert interval_kind("Q22(0,4)") == "full_line"

    def test_rejects_non_effective(self):
        s = surface_from_name("P2(1,0)")
        with pytest.raises(NotEffectiveError):
            transfer_sequence(s, (0, -1))

    def test_randomized_invariants(self):
        rng = random.Random(99)
        for name in ("P2(3,0)", "Q22(0,2)", "P2(0,4)", "D"):
            s = surface_from_name(name)
            for _ in range(25):
                d = random_effective_divisor(s, rng)
                t = transfer_sequence(s, d)
                assert t.terminal_kind in ("zero", "conic_bundle_multiple")
                assert t.chain_length <= s.intersect(s.minus_K, d)
                trace = [
                    st.check["minus_K_dot"]
                    for st in t.steps
                    if st.kind in ("subtract_negative_curve", "ample_step")
                ]
                assert all(a > b for a, b in zip(trace, trace[1:]))
                for st in t.steps:
                    if st.kind == "ample_step":
                        assert chi_criterion_holds(
                            st.check["chi_2E"],
                            st.check["h1_E_minus_D"],
                            st.check["chi_minus_D_minus_E"],
                        )

    def test_walk_strips_first_then_stays_nef(self):
        # Subtractions only open the walk; every later divisor is nef, and
        # every ample step records a nef residual.
        rng = random.Random(1440)
        kinds = {"subtract_negative_curve": 0, "contract": 0, "ample_step": 0}
        for s in catalogue():
            curves = [c for c in minus_one_curves(s) if s.is_real(c)]
            for _ in range(30):
                d = random_effective_divisor(s, rng)
                if curves and rng.random() < 0.5:
                    c, k = rng.choice(curves), rng.randint(1, 3)
                    d = tuple(x + k * y for x, y in zip(d, c))
                t = transfer_sequence(s, d)
                walk = [st.kind for st in t.steps]
                first = next(i for i, k in enumerate(walk) if k != "subtract_negative_curve")
                assert "subtract_negative_curve" not in walk[first:]
                for st in t.steps[first:]:
                    assert is_nef(surface_from_name(st.surface), st.divisor)
                    if st.kind == "ample_step":
                        assert st.check["nef_E"] is True
                for k in walk:
                    kinds[k] = kinds.get(k, 0) + 1
        assert min(kinds.values()) > 20

    def test_step_guard_counts_subtractions(self):
        # k E1 on P2(1,0) takes k subtractions and a terminal step; the walk
        # stops at MAX_WALK_STEPS steps.
        s = surface_from_name("P2(1,0)")
        t = transfer_sequence(s, (0, MAX_WALK_STEPS - 1))
        assert len(t.steps) == MAX_WALK_STEPS and t.terminal_kind == "zero"
        for k in (MAX_WALK_STEPS, 10**12):
            start = time.perf_counter()
            with pytest.raises(DelPezzoError, match="did not terminate"):
                transfer_sequence(s, (0, k))
            assert time.perf_counter() - start < 2.0

    def test_step_guard_through_a_phase(self, monkeypatch):
        # 9999 H on the plane is one ample phase of 9999 steps ending at
        # zero; one more step is over the budget, and a phase that reaches
        # the budget is refused before any of its records is built.
        s = surface_from_name("P2")
        t = transfer_sequence(s, (MAX_WALK_STEPS - 1,))
        assert len(t.steps) == MAX_WALK_STEPS and t.terminal_kind == "zero"
        assert [st.check["minus_K_dot"] for st in t.steps[:2]] == [3 * (MAX_WALK_STEPS - 1), 3 * (MAX_WALK_STEPS - 2)]
        built = []
        records = delpezzo._ample_records

        def spy(*args):
            built.append(args)
            return records(*args)

        monkeypatch.setattr(delpezzo, "_ample_records", spy)
        for k in (MAX_WALK_STEPS, 10**12):
            with pytest.raises(DelPezzoError, match="did not terminate"):
                transfer_sequence(s, (k,))
        assert built == []
        transfer_sequence(s, (3,))
        assert len(built) == 1


def test_first_nonpositive_matches_a_scan():
    # the least j >= 0 where a - 2bj + cj² <= 0, for a > 0, against a scan
    # past every root (each root is below 2|b| + a + 2)
    for a in range(1, 13):
        for b in range(-6, 7):
            for c in range(-3, 4):
                scan = next((j for j in range(3 * a + 3 * abs(b) + 3) if a - 2 * b * j + c * j * j <= 0), None)
                assert _first_nonpositive(a, b, c) == scan, (a, b, c)


class TestJson:
    def test_transfer_json_shape(self):
        s = surface_from_name("Q31(0,2)")
        t = transfer_sequence(s, s.minus_K)
        data = transfer_to_json_dict(t)
        assert data["certificate_kind"] == "modified_1_interval"
        assert data["terminal_kind"] == "zero"
        assert all({"kind", "surface", "divisor", "witness"} <= set(st) for st in data["steps"])

    def test_transfer_round_trip(self):
        import json

        s = surface_from_name("D(1,0)")
        t = transfer_sequence(s, s.minus_K)
        data = json.loads(json.dumps(transfer_to_json_dict(t)))
        assert {k: data[k] for k in ("surface", "terminal_kind", "certificate_kind", "chain_length")} == {
            "surface": t.surface,
            "terminal_kind": t.terminal_kind,
            "certificate_kind": t.certificate_kind,
            "chain_length": t.chain_length,
        }
        assert data["divisor"] == list(t.start)
        assert len(data["steps"]) == len(t.steps)
        for st, step in zip(data["steps"], t.steps):
            assert st["kind"] == step.kind and st["surface"] == step.surface
            assert st["divisor"] == list(step.divisor)
            assert st["witness"] == [list(w) for w in step.witness]
            assert st["result"] == (None if step.result is None else list(step.result))
            assert st["check"] == {
                k: (list(v) if isinstance(v, tuple) else v) for k, v in step.check.items()
            }
