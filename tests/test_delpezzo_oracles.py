"""The del Pezzo fast paths against brute-force oracles, and a golden corpus.

Pairings, nefness, ampleness and the involution are compared with dense
double sums on every catalogued surface; the forward-checked isometry search
is compared with plain backtracking on every contraction of the catalogue;
and the JSON of a fixed corpus of transfer sequences is pinned by its sha1,
so that a speed-up which changes any answer fails here.
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
    fraction_solve_in_column_span,
    plain_marked_isometry,
    random_effective_divisor,
)
from sostransfer import delpezzo
from sostransfer._intlinalg import identity, kernel_basis
from sostransfer.delpezzo import (
    CATALOGUE_TABLE,
    DelPezzoError,
    _find_marked_isometry,
    catalogue,
    cone_generators,
    contract_along,
    is_ample,
    is_nef,
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
    out += list(cone_generators(s))
    return out


class TestPairingOracle:
    def test_agrees_on_every_catalogued_surface(self):
        rng = random.Random(31)
        nef_seen = {True: 0, False: 0}
        ample_seen = {True: 0, False: 0}
        for s in catalogue():
            gens = dense_cone_generators(s)
            assert cone_generators(s) == gens
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


def golden_corpus_json() -> str:
    """Transfer JSON of a fixed C07-style corpus: 25 random effective
    divisors on each of four surfaces, then 1, 2, 3 times -K everywhere."""
    rng = random.Random(20260810)
    out = []
    for name in ("P2(6,0)", "P2(2,4)", "Q31(0,2)", "D(1,0)"):
        s = surface_from_name(name)
        for _ in range(25):
            out.append(transfer_to_json_dict(transfer_sequence(s, random_effective_divisor(s, rng))))
    for name, *_ in CATALOGUE_TABLE:
        s = surface_from_name(name)
        for k in (1, 2, 3):
            out.append(transfer_to_json_dict(transfer_sequence(s, tuple(k * x for x in s.minus_K))))
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def test_golden_transfer_corpus():
    assert hashlib.sha1(golden_corpus_json().encode()).hexdigest() == GOLDEN_SHA1
