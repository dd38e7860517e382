"""Totally-real del Pezzo surfaces of degree at least 3.

The catalogue encodes each surface as a Picard lattice with intersection
form, canonical class, and conjugation involution.  On top of that sit the
negative-curve and conic-bundle enumerations, nef/ample tests, and the
transfer-sequence algorithm that walks an effective divisor down to zero or
to a multiple of a conic bundle, verifying an Euler-characteristic
inequality at every ample step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Iterator, Optional, Sequence

from ._intlinalg import (
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    solve_in_column_span,
    solve_quadratic_lattice,
)

Divisor = tuple[int, ...]

_RANK_MISMATCH = "divisor length does not match the Picard rank"


class DelPezzoError(ValueError):
    """Base error for the del Pezzo layer."""


class NotCataloguedError(DelPezzoError):
    pass


class NotEffectiveError(DelPezzoError):
    pass


class NotContractibleError(DelPezzoError):
    pass


class NotConjugationFixedError(DelPezzoError):
    pass


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _nonzero_entries(m: Sequence[Sequence[int]]) -> tuple[tuple[int, int, int], ...]:
    return tuple((i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x)


def _fixed_rank(tau: Sequence[Sequence[int]]) -> int:
    """Rank of the lattice an involution fixes: the kernel of tau - I."""
    diff = [[t - (1 if i == j else 0) for j, t in enumerate(row)] for i, row in enumerate(tau)]
    return len(kernel_basis(diff, len(tau)))


def _apply_entries(entries: tuple[tuple[int, int, int], ...], n: int, d: Sequence[int]) -> Divisor:
    """The matrix with the given nonzero entries applied to d."""
    out = [0] * n
    for i, j, x in entries:
        out[i] += x * d[j]
    return tuple(out)


@dataclass(frozen=True)
class SurfaceModel:
    """A del Pezzo surface as a marked lattice with a real structure.

    gram is the intersection form on the Picard lattice over C, K the
    canonical class, tau the conjugation involution (as a matrix acting on
    coefficient vectors).  chi(O) = 1 on every del Pezzo surface, so the
    model holds no field for it (see ``chi``).

    What the del Pezzo layer derives from the lattice (the sparse form and
    involution, the real curves and conic bundles, the pairing rows of -K,
    the cone generators and the (-1)-curves, the classes of the ample step)
    is computed on first use and kept on the model, so it lives exactly as
    long as the model does.

    ``_subtractions`` is the one table of (-1)-curves the walk reads, both to
    strip a curve a divisor meets negatively and to choose the curve a
    nef-not-ample divisor D is pulled back along: the first witness of least
    length among those orthogonal to D.  That is the least real curve
    orthogonal to D when there is one.  Otherwise it is the least disjoint
    pair: D is real, so D.c = D.tau(c), and the first pair witness met sits
    at the smaller member of its pair, as (c, tau(c)) with c < tau(c).
    """

    name: str
    degree: int
    gram: tuple[tuple[int, ...], ...]
    K: Divisor
    tau: tuple[tuple[int, ...], ...]

    @cached_property
    def rank(self) -> int:
        return len(self.K)

    @cached_property
    def minus_K(self) -> Divisor:
        return tuple(-x for x in self.K)

    @cached_property
    def _gram_entries(self) -> tuple[tuple[int, int, int], ...]:
        return _nonzero_entries(self.gram)

    @cached_property
    def _tau_entries(self) -> tuple[tuple[int, int, int], ...]:
        return _nonzero_entries(self.tau)

    def intersect(self, d1: Sequence[int], d2: Sequence[int]) -> int:
        n = self.rank
        if len(d1) != n or len(d2) != n:
            raise DelPezzoError(_RANK_MISMATCH)
        return sum([x * d1[i] * d2[j] for i, j, x in self._gram_entries])

    def pairing_row(self, d: Sequence[int]) -> Divisor:
        """G.d, so that D.d is the plain dot product of D with the row."""
        return _apply_entries(self._gram_entries, self.rank, d)

    def tau_image(self, d: Sequence[int]) -> Divisor:
        if len(d) != self.rank:
            raise DelPezzoError(_RANK_MISMATCH)
        return _apply_entries(self._tau_entries, self.rank, d)

    def is_real(self, d: Sequence[int]) -> bool:
        return self.tau_image(d) == tuple(d)

    @cached_property
    def _minus_K_row(self) -> Divisor:
        return self.pairing_row(self.minus_K)

    @cached_property
    def _cone(self) -> tuple[tuple[Divisor, ...], tuple[Divisor, ...]]:
        """The extremal test classes of the cone of curves and their pairing rows."""
        gens = tuple(sorted(set(minus_one_curves(self)) | set(conic_bundle_classes(self))))
        if not gens:
            gens = (_primitive(self.minus_K),)
        return gens, tuple(self.pairing_row(c) for c in gens)

    @cached_property
    def _subtractions(self) -> tuple[tuple[Divisor, Optional[tuple[Divisor, ...]]], ...]:
        """For each (-1)-curve C in sorted order: its pairing row and the class
        a non-nef divisor meeting C negatively loses (C when C is real, C and
        its conjugate when they are disjoint, None when they meet)."""
        out = []
        for c in minus_one_curves(self):
            tc = self.tau_image(c)
            if tc == c:
                witness: Optional[tuple[Divisor, ...]] = (c,)
            elif self.intersect(c, tc) == 0:
                witness = (c, tc)
            else:
                witness = None
            out.append((self.pairing_row(c), witness))
        return tuple(out)

    @cached_property
    def _real_negative_curves(self) -> tuple[tuple[Divisor, ...], tuple[tuple[Divisor, Divisor], ...]]:
        witnesses = [w for _, w in self._subtractions if w is not None]
        reals = tuple(w[0] for w in witnesses if len(w) == 1)
        return reals, tuple(w for w in witnesses if len(w) == 2 and w[0] < w[1])

    @cached_property
    def _ample_step_classes(self) -> tuple[Divisor, Divisor, Divisor, bool, bool]:
        """The classes C, N, M of every ample step on the surface, with the
        nefness of N and M."""
        zero = (0,) * self.rank
        minus_k = self.minus_K
        if self.degree == 9:
            c = _primitive(minus_k)
            nvec = zero
            mvec = _scaled(c, 2)
        elif self.degree == 8:
            curves = minus_one_curves(self)
            if curves:
                c = conic_bundles_real(self)[0]
                nvec = _vec_add(c, curves[0])  # the hyperplane pullback
                mvec = _vec_sub(minus_k, c)
            else:
                c = tuple(x // 2 for x in minus_k)
                nvec = zero
                mvec = c
        else:
            reals, _ = self._real_negative_curves
            if reals:
                c = min(reals)
            else:
                bundles = conic_bundles_real(self)
                if not bundles:
                    raise DelPezzoError(f"{self.name}: no real curve or conic bundle available")
                c = min(bundles)
            nvec = _vec_sub(minus_k, c)
            mvec = nvec
        return c, nvec, mvec, is_nef(self, nvec), is_nef(self, mvec)

    @cached_property
    def _ample_phase(self) -> tuple[tuple[Divisor, ...], tuple[int, ...], tuple[tuple[Divisor, int], ...]]:
        """What an ample phase reads besides its divisor: the pairing rows of
        C, K and M; C.C, K.C, C.M, M.M and K.M; and the cone rows r with
        r.C > 0, each with r.C."""
        c, _, mvec, _, _ = self._ample_step_classes
        row_c, row_k, row_m = (self.pairing_row(x) for x in (c, self.K, mvec))
        pairings = (_dot(row_c, c), _dot(row_k, c), _dot(row_m, c), _dot(row_m, mvec), _dot(row_k, mvec))
        meeting = tuple((row, q) for row in self._cone[1] for q in (_dot(row, c),) if q > 0)
        return (row_c, row_k, row_m), pairings, meeting

    @cached_property
    def _conic_bundles_real(self) -> tuple[Divisor, ...]:
        return tuple(b for b in conic_bundle_classes(self) if self.tau_image(b) == b)

    @cached_property
    def real_rank(self) -> int:
        return _fixed_rank(self.tau)

    def validate(self) -> None:
        n = self.rank
        if mat_mul(self.tau, self.tau) != identity(n):
            raise DelPezzoError(f"{self.name}: involution does not square to the identity")
        taut = tuple(tuple(self.tau[j][i] for j in range(n)) for i in range(n))
        if mat_mul(mat_mul(taut, self.gram), self.tau) != self.gram:
            raise DelPezzoError(f"{self.name}: involution does not preserve the form")
        if self.tau_image(self.K) != self.K:
            raise DelPezzoError(f"{self.name}: involution moves the canonical class")
        if self.intersect(self.K, self.K) != self.degree:
            raise DelPezzoError(f"{self.name}: K.K does not match the declared degree")


# -- catalogue -----------------------------------------------------------------

#: (name, degree, real Picard rank, number of real (-1)-curves).
#: The degree-6 row with one real and one conjugate pair of blown-up points
#: has exactly 2 real (-1)-curves (the real exceptional curve and the line
#: through the conjugate pair).
CATALOGUE_TABLE: tuple[tuple[str, int, int, int], ...] = (
    ("P2", 9, 1, 0),
    ("P2(1,0)", 8, 2, 1),
    ("Q22", 8, 2, 0),
    ("Q31", 8, 1, 0),
    ("P2(2,0)", 7, 3, 3),
    ("P2(0,2)", 7, 2, 1),
    ("P2(3,0)", 6, 4, 6),
    ("P2(1,2)", 6, 3, 2),
    ("Q31(0,2)", 6, 2, 0),
    ("Q22(0,2)", 6, 3, 0),
    ("P2(4,0)", 5, 5, 10),
    ("P2(2,2)", 5, 4, 4),
    ("P2(0,4)", 5, 3, 2),
    ("P2(5,0)", 4, 6, 16),
    ("P2(3,2)", 4, 5, 8),
    ("P2(1,4)", 4, 4, 4),
    ("Q31(0,4)", 4, 3, 0),
    ("Q22(0,4)", 4, 4, 0),
    ("D", 4, 2, 0),
    ("P2(6,0)", 3, 7, 27),
    ("P2(4,2)", 3, 6, 15),
    ("P2(2,4)", 3, 5, 7),
    ("P2(0,6)", 3, 4, 3),
    ("D(1,0)", 3, 3, 3),
)


def _swap_pairs_tau(n: int, first_pair_index: int) -> tuple[tuple[int, ...], ...]:
    """Identity with trailing coordinates swapped in consecutive pairs."""
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    i = first_pair_index
    while i + 1 < n:
        t[i][i] = t[i + 1][i + 1] = 0
        t[i][i + 1] = t[i + 1][i] = 1
        i += 2
    return tuple(tuple(row) for row in t)


def _p2_model(a: int, two_b: int) -> SurfaceModel:
    r = a + two_b
    name = "P2" if r == 0 else f"P2({a},{two_b})"
    gram = tuple(
        tuple((1 if i == j == 0 else (-1 if i == j else 0)) for j in range(r + 1))
        for i in range(r + 1)
    )
    k = (-3,) + (1,) * r
    tau = _swap_pairs_tau(r + 1, 1 + a)
    return SurfaceModel(name, 9 - r, gram, k, tau)


def _quadric_gram(r: int) -> tuple[tuple[int, ...], ...]:
    gram = [[0] * (r + 2) for _ in range(r + 2)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, r + 2):
        gram[i][i] = -1
    return tuple(tuple(row) for row in gram)


def _quadric_model(kind: str, two_b: int) -> SurfaceModel:
    name = kind if two_b == 0 else f"{kind}(0,{two_b})"
    gram = _quadric_gram(two_b)
    k = (-2, -2) + (1,) * two_b
    tau = _swap_pairs_tau(two_b + 2, 0 if kind == "Q31" else 2)
    return SurfaceModel(name, 8 - two_b, gram, k, tau)


def _de_jonquieres_model(extra_real_point: bool) -> SurfaceModel:
    """The degree-4 surface with the de Jonquieres involution, optionally
    blown up at one further real point (degree 3).

    The lattice and K are those of the plane blown up in 5 or 6 points.  The
    involution is pinned by the images of the exceptional classes; its
    value on the hyperplane class is the unique extension fixing K and
    preserving the form, which the constructor re-checks.
    """
    r = 6 if extra_real_point else 5
    n = r + 1
    cols: list[list[int]] = []
    cols.append([3, -2, -1, -1, -1, -1] + ([0] if extra_real_point else []))
    cols.append([2, -1, -1, -1, -1, -1] + ([0] if extra_real_point else []))
    for i in range(2, 6):
        col = [1, -1, 0, 0, 0, 0] + ([0] if extra_real_point else [])
        col[i] = -1
        cols.append(col)
    if extra_real_point:
        cols.append([0, 0, 0, 0, 0, 0, 1])
    tau = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return replace(_p2_model(r, 0), name="D(1,0)" if extra_real_point else "D", tau=tau)


def _build_surface(name: str) -> SurfaceModel:
    """The model of a catalogued name (``surface_from_name`` checks the table)."""
    if name == "P2":
        return _p2_model(0, 0)
    if name in ("Q22", "Q31"):
        return _quadric_model(name, 0)
    if name == "D":
        return _de_jonquieres_model(False)
    if name == "D(1,0)":
        return _de_jonquieres_model(True)
    m = re.fullmatch(r"P2\((\d+),(\d+)\)", name)
    if m:
        return _p2_model(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"(Q22|Q31)\(0,(\d+)\)", name)
    return _quadric_model(m.group(1), int(m.group(2)))


@lru_cache(maxsize=32)  # only the 24 catalogued names are ever stored
def surface_from_name(name: str) -> SurfaceModel:
    """The catalogued surface with the given name.

    The constructor validates the involution (square, form preservation,
    fixed canonical class), the real Picard rank, and the real negative-curve
    count against the catalogue row.
    """
    rows = {row[0]: row for row in CATALOGUE_TABLE}
    if name not in rows:
        raise NotCataloguedError(f"not catalogued: {name!r}")
    model = _build_surface(name)
    model.validate()
    _, degree, rho, n_real = rows[name]
    if model.degree != degree:
        raise DelPezzoError(f"{name}: degree mismatch")
    if model.real_rank != rho:
        raise DelPezzoError(f"{name}: real Picard rank {model.real_rank} != {rho}")
    reals, _ = real_negative_curves(model)
    if len(reals) != n_real:
        raise DelPezzoError(f"{name}: {len(reals)} real (-1)-curves, expected {n_real}")
    return model


def catalogue() -> list[SurfaceModel]:
    return [surface_from_name(row[0]) for row in CATALOGUE_TABLE]


# -- class enumeration ---------------------------------------------------------


#: Class enumerations kept per process, keyed by the lattice (catalogued
#: surfaces of one family share it) and the two pairings.
_CLASS_CACHE_SIZE = 1024


@lru_cache(maxsize=_CLASS_CACHE_SIZE)
def _classes(gram: tuple, kvec: Divisor, square: int, kdot: int) -> tuple[Divisor, ...]:
    return tuple(solve_quadratic_lattice(gram, kvec, square, kdot))


def minus_one_curves(s: SurfaceModel) -> tuple[Divisor, ...]:
    """All classes with self-intersection -1 and K-degree -1, sorted.

    Empty for the three minimal surfaces of degree 8 and 9.
    """
    return _classes(s.gram, s.K, -1, -1)


def conic_bundle_classes(s: SurfaceModel) -> tuple[Divisor, ...]:
    """All conic bundle classes over C: B.B = 0 and -K.B = 2 (so K.B = -2)."""
    return _classes(s.gram, s.K, 0, -2)


def real_negative_curves(
    s: SurfaceModel,
) -> tuple[tuple[Divisor, ...], tuple[tuple[Divisor, Divisor], ...]]:
    """Conjugation-fixed (-1)-curves and disjoint conjugate pairs."""
    return s._real_negative_curves


#: The real structure's two kinds, keyed by surface (the minimal-model
#: family decides them): the image shape of the conic fibration on the real
#: points, and the certificate shape.  Every other surface has the full line
#: and plain sums of squares.
_REAL_STRUCTURE_KINDS = {
    "D": ("two_intervals", "modified_2_interval"),
    "D(1,0)": ("two_intervals", "modified_2_interval"),
    "Q31(0,2)": ("one_interval", "modified_1_interval"),
    "Q31(0,4)": ("one_interval", "modified_1_interval"),
}
_PLAIN_KINDS = ("full_line", "sos")


def interval_kind(name: str) -> str:
    """Image shape of the conic fibration on the real points."""
    return _REAL_STRUCTURE_KINDS.get(name, _PLAIN_KINDS)[0]


def certificate_kind(name: str) -> str:
    return _REAL_STRUCTURE_KINDS.get(name, _PLAIN_KINDS)[1]


def conic_bundles_real(s: SurfaceModel) -> tuple[Divisor, ...]:
    """Conjugation-fixed conic bundle classes, sorted; their interval kind
    is the surface's, ``interval_kind(s.name)``."""
    return s._conic_bundles_real


def _primitive(d: Divisor) -> Divisor:
    g = 0
    for x in d:
        g = gcd(g, abs(x))
    return tuple(x // g for x in d) if g > 1 else d


def _least_pairing(s: SurfaceModel, d: Divisor) -> int:
    """The least pairing of d with a cone generator: d is nef iff it is at
    least 0, and ample iff it is positive and D.D > 0."""
    # _dot inlined: this runs once per cone generator at every walk dispatch
    return min([sum(map(mul, row, d)) for row in s._cone[1]])


def is_nef(s: SurfaceModel, d: Sequence[int]) -> bool:
    d = tuple(d)
    if len(d) != s.rank:
        raise DelPezzoError(_RANK_MISMATCH)
    return _least_pairing(s, d) >= 0


def is_ample(s: SurfaceModel, d: Sequence[int]) -> bool:
    d = tuple(d)
    return s.intersect(d, d) > 0 and _least_pairing(s, d) > 0


def _chi_value(square: int, kdot: int) -> int:
    """chi of a class with D.D = square and D.K = kdot, by Riemann-Roch with
    chi(O) = 1, as on every del Pezzo surface."""
    q = square - kdot
    if q % 2 != 0:
        raise DelPezzoError("D.D - D.K must be even on a surface lattice")
    return 1 + q // 2


def chi(s: SurfaceModel, d: Sequence[int]) -> int:
    """Euler characteristic 1 + (D.D - D.K)/2; the parity is a lattice fact."""
    return _chi_value(s.intersect(d, d), s.intersect(d, s.K))


# -- negative curves ------------------------------------------------------------


def _vec_sub(a: Sequence[int], b: Sequence[int]) -> Divisor:
    return tuple(x - y for x, y in zip(a, b))


def _vec_add(a: Sequence[int], b: Sequence[int]) -> Divisor:
    return tuple(x + y for x, y in zip(a, b))


def _negative_curve_witness(s: SurfaceModel, d: Divisor) -> Optional[tuple[Divisor, ...]]:
    """What a real divisor that is not nef loses next.

    The lexicographically smallest (-1)-curve meeting d negatively, with its
    conjugate when the two are distinct and disjoint.  None when no
    (-1)-curve meets d negatively (d is negative on a conic bundle or ruling)
    or when that curve meets its conjugate (C + tau(C) is then a nef conic
    bundle pairing negatively with d); either way d is not effective.
    """
    for row, witness in s._subtractions:
        if _dot(row, d) < 0:
            return witness
    return None


# -- ample step ----------------------------------------------------------------


@dataclass(frozen=True)
class AmpleStep:
    C: Divisor
    E: Divisor
    check: dict


def _scaled(d: Sequence[int], k: int) -> Divisor:
    return tuple(k * x for x in d)


def ample_step(s: SurfaceModel, d: Sequence[int]) -> AmpleStep:
    """One transfer step off an ample divisor.

    The subtracted class C is a real (-1)-curve when the surface has one
    (degree at most 7), else a real conic bundle; the plane and the minimal
    degree-8 surfaces use their hard-coded minimal ample decompositions.
    The residual E = D - C is nef, and the verification record checks the
    Euler-characteristic inequality chi(2E) > chi(-D-E) plus nefness of the
    auxiliary classes.
    """
    cur = tuple(d)
    if not s.is_real(cur):
        raise NotConjugationFixedError("not conjugation-fixed")
    if not is_ample(s, cur):
        raise DelPezzoError("ample_step requires an ample divisor")
    record = next(_ample_records(s, cur, 1, _phase_limits(s, cur)[1]))
    return AmpleStep(record["C"], record["E"], record)


def _first_nonpositive(a: int, b: int, c: int) -> Optional[int]:
    """The least j >= 0 with a - 2bj + cj² <= 0, for a > 0; None if none."""
    if c == 0:
        return -(-a // (2 * b)) if b > 0 else None
    disc = b * b - a * c  # (cj - b)² = c·(cj² - 2bj + a) + disc
    if disc < 0:
        return None
    r = isqrt(disc)
    if c < 0:
        # the square is at most 0 once -cj + b reaches sqrt(disc)
        r += r * r < disc
        return -((b - r) // -c)
    # ... and for c > 0 while |cj - b| <= sqrt(disc)
    j = max(0, -((r - b) // c))
    return j if c * j <= b + r else None


def _phase_limits(s: SurfaceModel, d: Divisor) -> tuple[int, int]:
    """For an ample d with C its step class: the least j with d - jC not
    ample, and the largest j with d - jC nef, both capped at MAX_WALK_STEPS.

    With p = r.d and q = r.C for a cone row r, d - jC pairs to p - jq with
    r, so only rows with q > 0 bound j: d - jC is ample while its square is
    positive and j < ceil(p/q), and nef while j <= floor(p/q).
    """
    ample_end = nef_end = MAX_WALK_STEPS
    for row, q in s._ample_phase[2]:
        p = sum(map(mul, row, d))
        ample_end = min(ample_end, -(-p // q))
        nef_end = min(nef_end, p // q)
    (row_c, _, _), (cc, *_), _ = s._ample_phase
    square_end = _first_nonpositive(s.intersect(d, d), _dot(row_c, d), cc)
    if square_end is not None:
        ample_end = min(ample_end, square_end)
    return ample_end, nef_end


def _ample_records(s: SurfaceModel, d: Divisor, steps: int, nef_end: int) -> Iterator[dict]:
    """The records of the ample steps off d - jC for j < steps, for an ample
    d whose phase is at least that long and with nef_end from ``_phase_limits``.

    Along a phase every pairing is linear and every square quadratic in j,
    so each record costs O(1) pairings beyond building its vectors.
    """
    c, nvec, mvec, nef_n, nef_m = s._ample_step_classes
    (row_c, row_k, row_m), (cc, kc, cm, mm, km), _ = s._ample_phase
    dd, dc, dk, dm = s.intersect(d, d), _dot(row_c, d), _dot(row_k, d), _dot(row_m, d)
    cur = d
    for j in range(steps):
        evec = _vec_sub(cur, c)
        i = j + 1  # E = d - iC
        ee = dd - 2 * i * dc + i * i * cc
        ek = dk - i * kc
        em = dm - i * cm
        h = 2 * j + 1  # D + E = 2d - hC
        chi_2e = _chi_value(4 * ee, 2 * ek)
        chi_minus_de = _chi_value(4 * dd - 4 * h * dc + h * h * cc, h * kc - 2 * dk)
        chi_2e_minus_m = _chi_value(4 * ee - 4 * em + mm, 2 * ek - km)
        record = {
            "surface": s.name,
            "D": cur,
            "C": c,
            "E": evec,
            "N": nvec,
            "M": mvec,
            "nef_E": i <= nef_end,
            "nef_N": nef_n,
            "nef_M": nef_m,
            "two_E_dot_M": 2 * em,
            "chi_2E": chi_2e,
            "chi_minus_D_minus_E": chi_minus_de,
            "chi_2E_minus_M": chi_2e_minus_m,
            "h1_E_minus_D": 0,
            "holds": chi_2e > chi_minus_de,
        }
        if not record["holds"]:
            raise DelPezzoError(f"{s.name}: ample step inequality failed for {cur}")
        yield record
        cur = evec


# -- contraction ---------------------------------------------------------------


@dataclass(frozen=True)
class Contraction:
    source: SurfaceModel
    target: SurfaceModel
    contracted: tuple[Divisor, ...]
    _push: tuple[tuple[int, ...], ...]  # source coords -> target coords

    def push(self, d: Sequence[int]) -> Divisor:
        """Pushforward of a class orthogonal to the contracted curves."""
        for c in self.contracted:
            if self.source.intersect(d, c) != 0:
                raise NotContractibleError("class is not orthogonal to the contracted curves")
        return mat_vec(self._push, d)


def _find_marked_isometry(
    gram_s: tuple,
    k_s: Divisor,
    tau_s: tuple,
    dst: SurfaceModel,
) -> Optional[tuple[tuple[int, ...], ...]]:
    """A lattice isomorphism onto dst matching form, canonical class, and
    involution; returned as a matrix sending source coordinates to dst.

    Depth-first over the source basis vectors, fewest candidate images
    first, each candidate list in sorted order.  Choosing an image v for
    basis vector i filters every later candidate list down to the classes w
    with v.w = gram_s[i][j] (forward checking), and a choice that empties a
    list is dropped at once.  The conditions M K_s = K_dst and, column by
    column, M tau_s = tau_dst M are each tested at the first depth where
    every image they read has been chosen (early pruning in the manner of
    Plesken and Souvignier), not at the leaves.  Every pruned branch holds
    no isometry, so the search returns the same first isometry as plain
    backtracking.
    """
    n = len(k_s)
    if n != dst.rank:
        return None
    gk = [sum(gram_s[i][j] * k_s[j] for j in range(n)) for i in range(n)]
    cands = []
    for i in range(n):
        classes = _classes(dst.gram, dst.K, gram_s[i][i], gk[i])
        if not classes:
            return None
        cands.append([(v, dst.pairing_row(v)) for v in classes])
    order = sorted(range(n), key=lambda i: len(cands[i]))
    depth = {i: pos for pos, i in enumerate(order)}
    images: list[Divisor] = [()] * n  # images[i] is column i of the matrix
    # checks[pos]: the (terms, column or None) tests whose images are all
    # chosen once order[pos] is; None stands for the canonical class
    checks: list[list] = [[] for _ in range(n)]
    k_terms = [(i, x) for i, x in enumerate(k_s) if x]
    checks[max(depth[i] for i, _ in k_terms)].append((k_terms, None))
    for j in range(n):
        terms = [(i, tau_s[i][j]) for i in range(n) if tau_s[i][j]]
        checks[max([depth[j]] + [depth[i] for i, _ in terms])].append((terms, j))

    def holds(terms: list[tuple[int, int]], col: Optional[int]) -> bool:
        out = [0] * n
        for i, x in terms:
            for t, y in enumerate(images[i]):
                out[t] += x * y
        return tuple(out) == (dst.K if col is None else dst.tau_image(images[col]))

    def search(pos: int, domains: list) -> Optional[tuple[tuple[int, ...], ...]]:
        # domains[t] holds the candidates of order[pos + t] that pair right
        # with every image chosen so far
        if pos == n:
            return tuple(tuple(images[j][i] for j in range(n)) for i in range(n))
        i = order[pos]
        later = order[pos + 1 :]
        ready = checks[pos]
        for v, row in domains[0]:
            images[i] = v
            if not all(holds(terms, col) for terms, col in ready):
                continue
            rest = []
            for j, dom in zip(later, domains[1:]):
                need = gram_s[i][j]
                dom = [(w, wrow) for w, wrow in dom if sum(map(mul, row, w)) == need]
                if not dom:
                    break
                rest.append(dom)
            else:
                m = search(pos + 1, rest)
                if m is not None:
                    return m
        return None

    return search(0, [cands[i] for i in order])


#: Contractions kept per process: more than the catalogue's contractible
#: curves and conjugate pairs (a pair in either order), so only contractions
#: of non-catalogued sources can evict one.
_CONTRACTION_CACHE_SIZE = 512


def contract_along(s: SurfaceModel, curves) -> Contraction:
    """Blow down a real (-1)-curve or a disjoint conjugate pair.

    The image lattice is realized as the orthogonal complement of the
    contracted classes (with the induced form, involution, and canonical
    class) and then identified, by an exact marked-lattice isomorphism, with
    the one catalogued model of the same degree, real Picard rank and number
    of real (-1)-curves, all three read off the source (see ``_contract``).
    The contraction keeps the composite of the projection onto the
    complement and that isomorphism as one integer matrix.
    """
    if curves and isinstance(curves[0], int):
        curve_list = (tuple(curves),)
    else:
        curve_list = tuple(tuple(c) for c in curves)
    return _contract(s, curve_list)


@lru_cache(maxsize=_CONTRACTION_CACHE_SIZE)
def _contract(s: SurfaceModel, curve_list: tuple[Divisor, ...]) -> Contraction:
    """``contract_along`` on a normalized curve list.

    The target's catalogue row comes from the source's invariants.  The
    curves are disjoint with c.c = K.c = -1, and K pushes forward to
    K - sum_c c, whose square is K.K + #curves: the degree grows by one per
    curve.  The curves span one real class (c, or c + tau(c) for a pair), so
    the real rank drops by one.  The target's real (-1)-curves are the
    source's orthogonal to the curves.  No two catalogue rows share all
    three, and the marked isometry still checks form, K and tau against the
    row, so a wrong row would yield no contraction.
    """
    for c in curve_list:
        if s.intersect(c, c) != -1 or s.intersect(s.K, c) != -1:
            raise NotContractibleError(f"{c} is not a (-1)-class")
    if len(curve_list) == 1:
        c = curve_list[0]
        if s.tau_image(c) != c:
            raise NotContractibleError("single contracted curve must be real")
    elif len(curve_list) == 2:
        c1, c2 = curve_list
        if s.tau_image(c1) != c2 or s.intersect(c1, c2) != 0:
            raise NotContractibleError("pair must be disjoint and conjugate")
    else:
        raise NotContractibleError("contract one real curve or one conjugate pair")
    n = s.rank
    rows = [s.pairing_row(c) for c in curve_list]
    basis = kernel_basis(rows, n)
    k = len(basis)
    # the curves pair to -I, so d -> d + sum_c (d.c) c projects the lattice
    # onto their orthogonal complement (and K onto K - sum_c c); column j of
    # proj holds the basis coordinates of the projected unit vector e_j
    images = []
    for j, e in enumerate(identity(n)):
        for c, row in zip(curve_list, rows):
            e = _vec_add(e, _scaled(c, row[j]))
        images.append(e)
    proj = tuple(zip(*solve_in_column_span(basis, images)))
    gram2 = tuple(
        tuple(s.intersect(basis[i], basis[j]) for j in range(k)) for i in range(k)
    )
    k2 = mat_vec(proj, s.K)
    tau2 = mat_mul(mat_mul(proj, s.tau), tuple(zip(*basis)))
    degree2 = s.degree + len(curve_list)
    rho2 = s.real_rank - 1
    reals, _ = real_negative_curves(s)
    n_reals2 = sum(1 for r in reals if all(s.intersect(r, c) == 0 for c in curve_list))
    for name, *invariants in CATALOGUE_TABLE:
        if invariants == [degree2, rho2, n_reals2]:
            target = surface_from_name(name)
            m = _find_marked_isometry(gram2, k2, tau2, target)
            if m is not None:
                return Contraction(s, target, curve_list, mat_mul(m, proj))
    raise DelPezzoError(f"no catalogued target of degree {degree2} matches the contraction")


# -- transfer sequences ---------------------------------------------------------


@dataclass(frozen=True)
class TransferStep:
    kind: str  # "subtract_negative_curve" | "contract" | "ample_step" | "terminal"
    surface: str
    divisor: Divisor
    witness: tuple[Divisor, ...] = ()
    check: Optional[dict] = None
    result: Optional[Divisor] = None


@dataclass(frozen=True)
class DelPezzoTransfer:
    surface: str
    start: Divisor
    steps: tuple[TransferStep, ...]
    terminal_kind: str  # "zero" | "conic_bundle_multiple"
    certificate_kind: str  # "sos" | "modified_1_interval" | "modified_2_interval"

    @property
    def chain_length(self) -> int:
        """Number of multiplier steps (curve subtractions and ample steps)."""
        return sum(1 for st in self.steps if st.kind in ("subtract_negative_curve", "ample_step"))


def _conic_multiple(s: SurfaceModel, d: Divisor, pairing: int) -> Optional[tuple[Divisor, int]]:
    """The real conic bundle F and c > 0 with d = cF, given pairing = -K.d."""
    if pairing <= 0 or pairing % 2 != 0:
        return None
    c = pairing // 2
    for bundle in conic_bundles_real(s):
        if tuple(c * x for x in bundle) == d:
            return bundle, c
    return None


#: The most steps one walk may take, its terminal step included.  Every walk
#: ends (see ``transfer_sequence``), so the budget bounds work, not a loop
#: that could run forever; past it the walk is refused with DelPezzoError.
MAX_WALK_STEPS = 10_000

_OVER_BUDGET = f"transfer did not terminate within the budget of {MAX_WALK_STEPS} steps"


def transfer_sequence(s: SurfaceModel, d: Sequence[int]) -> DelPezzoTransfer:
    """Walk a real effective divisor down to zero or to a conic bundle multiple.

    The walk takes one step per divisor and tests, in this order: zero and
    a conic-bundle multiple are terminal; an ample divisor loses the chosen
    curve or bundle C with a verified Euler-characteristic inequality, and
    the residual's nefness is part of that record; a nef-not-ample divisor
    is pulled back from a higher-degree catalogued surface via a real
    contraction, whose pushforward is nef again; any other divisor loses
    the negative curve (or conjugate pair) of ``_negative_curve_witness``,
    or is not effective when -K.D < 0 or there is no such curve.  So
    subtractions only open the walk, and the divisor stays nef after them.
    The anticanonical pairing strictly decreases at every multiplier step
    and each contraction lowers the Picard rank, which bounds the chain
    length by -K.D.

    Each dispatch reads D.D and the least cone pairing once.  An ample
    divisor starts a phase: its ample steps all subtract the same C, so the
    phase's length comes from ``_phase_limits`` in closed form and its
    records from ``_ample_records`` at O(1) pairings each.  A walk longer
    than ``MAX_WALK_STEPS`` steps is refused, and a phase that would reach
    the budget is refused before any of its records is built.
    """
    cur = tuple(d)
    if len(cur) != s.rank:
        raise DelPezzoError(_RANK_MISMATCH)
    if not s.is_real(cur):
        raise NotConjugationFixedError("not conjugation-fixed")
    surf = s
    steps: list[TransferStep] = []
    while True:
        if len(steps) >= MAX_WALK_STEPS:
            raise DelPezzoError(_OVER_BUDGET)
        if not any(cur):
            steps.append(
                TransferStep(
                    "terminal", surf.name, cur, check={"terminal_kind": "zero", "minus_K_dot": 0}
                )
            )
            break
        mk_pairing = _dot(surf._minus_K_row, cur)
        square = surf.intersect(cur, cur)
        # any multiple of a conic class has square 0
        cm = _conic_multiple(surf, cur, mk_pairing) if square == 0 else None
        if cm is not None:
            bundle, mult = cm
            steps.append(
                TransferStep(
                    "terminal",
                    surf.name,
                    cur,
                    witness=(bundle,),
                    check={
                        "terminal_kind": "conic_bundle_multiple",
                        "multiple": mult,
                        "interval_kind": interval_kind(surf.name),
                        "minus_K_dot": mk_pairing,
                    },
                )
            )
            break
        least = _least_pairing(surf, cur)
        if square > 0 and least > 0:
            length, nef_end = _phase_limits(surf, cur)
            if len(steps) + length >= MAX_WALK_STEPS:
                raise DelPezzoError(_OVER_BUDGET)
            kc = surf._ample_phase[1][1]  # K.C: -K.D changes by it per step
            for j, record in enumerate(_ample_records(surf, cur, length, nef_end)):
                if not record["nef_E"]:
                    raise DelPezzoError(f"{surf.name}: ample step left a divisor that is not nef")
                record["minus_K_dot"] = mk_pairing + j * kc
                steps.append(TransferStep("ample_step", surf.name, record["D"], (record["C"],), record, record["E"]))
            cur = steps[-1].result
        elif least >= 0:
            # the least real curve orthogonal to cur, else the least pair
            # (see SurfaceModel)
            zero = [w for row, w in surf._subtractions if w is not None and _dot(row, cur) == 0]
            spec = min(zero, key=len, default=None)
            if spec is None:
                raise DelPezzoError(f"{surf.name}: nef-not-ample divisor with no contractible curve")
            contraction = contract_along(surf, spec)
            nxt = contraction.push(cur)
            steps.append(
                TransferStep(
                    "contract",
                    surf.name,
                    cur,
                    witness=spec,
                    check={"target": contraction.target.name, "minus_K_dot": mk_pairing},
                    result=nxt,
                )
            )
            surf = contraction.target
            cur = nxt
        else:
            witness = _negative_curve_witness(surf, cur) if mk_pairing >= 0 else None
            if witness is None:
                raise NotEffectiveError("not effective")
            nxt = cur
            for w in witness:
                nxt = _vec_sub(nxt, w)
            steps.append(
                TransferStep(
                    "subtract_negative_curve",
                    surf.name,
                    cur,
                    witness=witness,
                    check={"pairing": surf.intersect(cur, witness[0]), "minus_K_dot": mk_pairing},
                    result=nxt,
                )
            )
            cur = nxt
    return DelPezzoTransfer(
        surface=s.name,
        start=tuple(d),
        steps=tuple(steps),
        terminal_kind=steps[-1].check["terminal_kind"],
        certificate_kind=certificate_kind(s.name),
    )


# -- JSON -----------------------------------------------------------------------


def _check_to_json(check: Optional[dict]) -> Optional[dict]:
    if check is None:
        return None
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in check.items()}


def transfer_to_json_dict(t: DelPezzoTransfer) -> dict:
    return {
        "surface": t.surface,
        "divisor": list(t.start),
        "terminal_kind": t.terminal_kind,
        "certificate_kind": t.certificate_kind,
        "chain_length": t.chain_length,
        "steps": [
            {
                "kind": st.kind,
                "surface": st.surface,
                "divisor": list(st.divisor),
                "witness": [list(w) for w in st.witness],
                "check": _check_to_json(st.check),
                "result": list(st.result) if st.result is not None else None,
            }
            for st in t.steps
        ],
    }
