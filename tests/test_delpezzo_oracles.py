"""The del Pezzo fast paths against brute-force oracles, and a golden corpus.

Pairings, nefness, ampleness and the involution are compared with dense
double sums on every catalogued surface; the pruned isometry search is
compared with plain backtracking on every contraction of the catalogue, in
the contraction's own basis and in random re-bases of it; the walk's ample
phases are compared with the one-step-per-turn reference walk on three
corpora; and the JSON of a fixed corpus of transfer sequences is pinned by
its sha1, so that a speed-up which changes any answer fails here.
"""

import hashlib
import json
import random

import pytest

from conftest import (
    dense_cone_generators,
    dense_intersect,
    dense_is_ample,
    dense_is_nef,
    dense_tau_image,
    fraction_rank,
    fraction_solve_in_column_span,
    plain_marked_isometry,
    random_effective_divisor,
    random_unimodular_pair,
    reference_transfer_sequence,
)
from sostransfer import delpezzo
from sostransfer._intlinalg import identity, kernel_basis, mat_mul, mat_vec
from sostransfer.delpezzo import (
    CATALOGUE_TABLE,
    DelPezzoError,
    _find_marked_isometry,
    catalogue,
    contract_along,
    is_ample,
    is_nef,
    minus_one_curves,
    real_negative_curves,
    surface_from_name,
    transfer_sequence,
    transfer_to_json_dict,
)


def _divisor_corpus(s, rng):
    """Random integer vectors, random effective divisors, multiples of -K,
    -K plus a small perturbation, and the cone generators themselves."""
    n = s.rank
    out = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(30)]
    out += [random_effective_divisor(s, rng) for _ in range(10)]
    out += [tuple(k * x for x in s.minus_K) for k in (0, 1, 2, 5)]
    out += [tuple(2 * x + rng.randint(-1, 1) for x in s.minus_K) for _ in range(10)]
    out += list(s._cone[0])
    return out


class TestPairingOracle:
    def test_agrees_on_every_catalogued_surface(self):
        rng = random.Random(31)
        nef_seen = {True: 0, False: 0}
        ample_seen = {True: 0, False: 0}
        for s in catalogue():
            gens = dense_cone_generators(s)
            assert s._cone[0] == gens
            for d in _divisor_corpus(s, rng):
                e = tuple(rng.randint(-3, 3) for _ in range(s.rank))
                assert s.intersect(d, e) == dense_intersect(s, d, e)
                assert s.intersect(d, d) == dense_intersect(s, d, d)
                assert s.tau_image(d) == dense_tau_image(s, d)
                nef = is_nef(s, d)
                ample = is_ample(s, d)
                assert nef == dense_is_nef(s, d, gens)
                assert ample == dense_is_ample(s, d, gens)
                nef_seen[nef] += 1
                ample_seen[ample] += 1
        # the corpus exercises both answers of both tests
        assert min(nef_seen.values()) > 50 and min(ample_seen.values()) > 50

    def test_length_checks(self):
        s = surface_from_name("P2(2,4)")
        short = (1,) * (s.rank - 1)
        for call in (
            lambda: s.intersect(short, s.K),
            lambda: s.intersect(s.K, short),
            lambda: s.tau_image(short),
            lambda: is_nef(s, short),
            lambda: is_ample(s, short),
        ):
            with pytest.raises(DelPezzoError):
                call()


def _image_basis(s, con):
    """The saturated basis of the contracted curves' orthogonal complement."""
    rows = [[dense_intersect(s, e, c) for e in identity(s.rank)] for c in con.contracted]
    return kernel_basis(rows, s.rank)


def _image_lattice(s, con):
    """The form, canonical class and involution of the contracted lattice in
    the basis of ``_image_basis``, recomputed with dense pairings."""
    basis = _image_basis(s, con)
    k = len(basis)
    gram2 = tuple(tuple(dense_intersect(s, basis[i], basis[j]) for j in range(k)) for i in range(k))
    k_shift = list(s.K)
    for c in con.contracted:
        k_shift = [a - b for a, b in zip(k_shift, c)]
    k2 = fraction_solve_in_column_span(basis, k_shift)
    cols = [fraction_solve_in_column_span(basis, dense_tau_image(s, b)) for b in basis]
    tau2 = tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))
    return gram2, k2, tau2


class TestIsometryOracle:
    def test_every_catalogued_contraction(self):
        searched = 0
        for s in catalogue():
            reals, pairs = real_negative_curves(s)
            for spec in reals + pairs:
                con = contract_along(s, spec)
                gram2, k2, tau2 = _image_lattice(s, con)
                expected = plain_marked_isometry(gram2, k2, tau2, con.target)
                assert expected is not None
                assert _find_marked_isometry(gram2, k2, tau2, con.target) == expected
                # push sends basis vector j to column j of the isometry
                for j, b in enumerate(_image_basis(s, con)):
                    assert con.push(b) == tuple(row[j] for row in expected)
                searched += 1
        assert searched == 164  # every real curve and disjoint conjugate pair

    def test_target_invariants_follow_from_the_source(self):
        # _contract reads the target's catalogue row off the source: the
        # degree grows by one per contracted curve and the real rank drops
        # by one.  Both hold for the chosen target's table row and for the
        # image lattice recomputed densely.
        table = {name: (degree, rho) for name, degree, rho, _ in CATALOGUE_TABLE}
        checked = 0
        for s in catalogue():
            reals, pairs = real_negative_curves(s)
            for spec in reals + pairs:
                con = contract_along(s, spec)
                expected = (s.degree + len(con.contracted), s.real_rank - 1)
                assert (con.target.degree, con.target.real_rank) == expected
                assert table[con.target.name] == expected
                gram2, k2, tau2 = _image_lattice(s, con)
                k = len(k2)
                degree2 = sum(k2[i] * gram2[i][j] * k2[j] for i in range(k) for j in range(k))
                fixed = k - fraction_rank([[t - (i == j) for j, t in enumerate(row)] for i, row in enumerate(tau2)])
                assert (degree2, fixed) == expected
                checked += 1
        assert checked == 164

    def test_one_row_searched_and_push_solves_nothing(self, monkeypatch):
        searched = []

        def spy(gram2, k2, tau2, target):
            searched.append(target.name)
            return _find_marked_isometry(gram2, k2, tau2, target)

        def no_solve(*args):
            raise AssertionError("push made a solve")

        delpezzo._contract.cache_clear()
        monkeypatch.setattr(delpezzo, "_find_marked_isometry", spy)
        cons = []
        for s in catalogue():
            reals, pairs = real_negative_curves(s)
            for spec in reals + pairs:
                del searched[:]
                con = contract_along(s, spec)
                assert searched == [con.target.name]
                cons.append((s, con))
        monkeypatch.setattr(delpezzo, "solve_in_column_span", no_solve)
        for s, con in cons:
            # -K projects to -K + sum_c c, which pushes to -K of the image
            d = tuple(x + sum(c[i] for c in con.contracted) for i, x in enumerate(s.minus_K))
            assert con.push(d) == con.target.minus_K
        delpezzo._contract.cache_clear()

    def test_random_rebases_of_every_contraction(self):
        # New basis b'_j = sum_i U[i][j] b_i, so old coordinates are U times
        # new ones: the form becomes UᵀGU, K becomes U⁻¹K, tau U⁻¹ tau U.
        # Plain backtracking takes up to seconds on some re-bases of the
        # rank-6 images (the degree-3 sources), so those get 5 re-bases whose
        # result is checked densely to be a marked isometry, not compared.
        rng = random.Random(1997)
        rows = {name: (degree, len(surface_from_name(name).K)) for name, degree, *_ in CATALOGUE_TABLE}
        compared = verified = wrong_rows = 0
        for s in catalogue():
            reals, pairs = real_negative_curves(s)
            for spec in reals + pairs:
                con = contract_along(s, spec)
                dst = con.target
                gram2, k2, tau2 = _image_lattice(s, con)
                wrong = [surface_from_name(n) for n, row in rows.items() if row == rows[dst.name] and n != dst.name]
                for rebase in range(20 if dst.rank <= 5 else 5):
                    u, inv = random_unimodular_pair(rng, len(k2))
                    gram = mat_mul(mat_mul(tuple(zip(*u)), gram2), u)
                    k = mat_vec(inv, k2)
                    tau = mat_mul(mat_mul(inv, tau2), u)
                    m = _find_marked_isometry(gram, k, tau, dst)
                    if dst.rank <= 5:
                        assert m == plain_marked_isometry(gram, k, tau, dst)
                        compared += 1
                    cols = [tuple(row[j] for row in m) for j in range(len(k))]
                    assert [[dense_intersect(dst, a, b) for b in cols] for a in cols] == [list(r) for r in gram]
                    assert mat_vec(m, k) == dst.K and mat_mul(m, tau) == mat_mul(dst.tau, m)
                    verified += 1
                    if rebase == 0:
                        for other in wrong:
                            assert _find_marked_isometry(gram, k, tau, other) is None
                            wrong_rows += 1
        assert compared == 20 * 109 and verified == compared + 5 * 55 and wrong_rows == 512

    def test_no_isometry_onto_a_wrong_target(self):
        # P2(2,0) blown down along E2 is P2(1,0), not the quadric Q22 of the
        # same degree: both searches must fail there
        s = surface_from_name("P2(2,0)")
        con = contract_along(s, (0, 0, 1))
        gram2, k2, tau2 = _image_lattice(s, con)
        q22 = surface_from_name("Q22")
        assert plain_marked_isometry(gram2, k2, tau2, q22) is None
        assert _find_marked_isometry(gram2, k2, tau2, q22) is None


#: sha1 of the golden corpus's transfer JSON, computed with the dense-pairing,
#: plain-backtracking implementation that preceded the fast paths.
GOLDEN_SHA1 = "1642d8ec89bc76d7dd3f37bfac5cfb592205675f"


def golden_corpus() -> list:
    """A fixed C07-style corpus of (surface, divisor): 25 random effective
    divisors on each of four surfaces, then 1, 2, 3 times -K everywhere."""
    rng = random.Random(20260810)
    out = []
    for name in ("P2(6,0)", "P2(2,4)", "Q31(0,2)", "D(1,0)"):
        s = surface_from_name(name)
        out += [(s, random_effective_divisor(s, rng)) for _ in range(25)]
    for name, *_ in CATALOGUE_TABLE:
        s = surface_from_name(name)
        out += [(s, tuple(k * x for x in s.minus_K)) for k in (1, 2, 3)]
    return out


def golden_corpus_json() -> str:
    """Transfer JSON of the golden corpus."""
    out = [transfer_to_json_dict(transfer_sequence(s, d)) for s, d in golden_corpus()]
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def test_golden_transfer_corpus():
    assert hashlib.sha1(golden_corpus_json().encode()).hexdigest() == GOLDEN_SHA1


def _walk_outcome(walk, s, d):
    """The transfer JSON of a walk, or the class and message of its error."""
    try:
        return transfer_to_json_dict(walk(s, d))
    except DelPezzoError as exc:
        return type(exc).__name__, str(exc)


def _kinds_against_reference(corpus) -> dict:
    """Assert the walk equals the reference walk on every (surface, divisor)
    of corpus; returns how many steps of each kind the corpus took."""
    kinds: dict = {}
    for s, d in corpus:
        got = _walk_outcome(transfer_sequence, s, d)
        assert got == _walk_outcome(reference_transfer_sequence, s, d), (s.name, d)
        for st in got["steps"] if isinstance(got, dict) else ():
            kinds[st["kind"]] = kinds.get(st["kind"], 0) + 1
    return kinds


class TestReferenceWalk:
    """The phased walk against the one-step-per-turn reference walk."""

    def test_golden_corpus(self):
        kinds = _kinds_against_reference(golden_corpus())
        assert kinds["ample_step"] > 500 and kinds["contract"] > 100

    def test_long_phases_on_anticanonical_multiples(self):
        corpus = [(s, tuple(n * x for x in s.minus_K)) for s in catalogue() for n in range(1, 41)]
        kinds = _kinds_against_reference(corpus)
        assert kinds["ample_step"] > 20_000

    def test_non_nef_starts(self):
        # D + kE for a real (-1)-curve E meets E negatively once k > D.E, so
        # these walks open with subtractions before any phase
        rng = random.Random(1985)
        corpus = []
        for s in catalogue():
            for e in minus_one_curves(s):
                if s.is_real(e):
                    for d in (s.minus_K, random_effective_divisor(s, rng)):
                        corpus += [(s, tuple(x + k * y for x, y in zip(d, e))) for k in range(1, 7)]
        kinds = _kinds_against_reference(corpus)
        assert kinds["subtract_negative_curve"] > 2_000 and kinds["ample_step"] > 2_000

    def test_not_nef_without_a_negative_curve(self):
        # on Q22, D = (2, -1) has -K.D = 2 and is not nef, and there is no
        # (-1)-curve to subtract: the walk finds no witness
        s, d = surface_from_name("Q22"), (2, -1)
        assert not is_nef(s, d) and not minus_one_curves(s)
        assert delpezzo._negative_curve_witness(s, d) is None
        outcome = ("NotEffectiveError", "not effective")
        assert _walk_outcome(transfer_sequence, s, d) == _walk_outcome(reference_transfer_sequence, s, d) == outcome
