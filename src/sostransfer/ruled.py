"""Blow-up transfer schedules and quadratic degree bounds for ruled surfaces.

All data is reduced to four integers: the anticanonical degree of the
hyperplane class, the self-pairing of the hyperplane with its adjoint, the
structure-sheaf Euler characteristic of the blow-up, and the nef threshold
ell.  The two margin evaluators decide one-step transfers on the blow-up;
the schedule builder assembles and verifies the full ladder from dH down
to (d-1)H.  The minimal degree and the degree bound read which degrees
have a schedule one isqrt block at a time, without building ladders.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import lru_cache


class RuledDataError(ValueError):
    """Invalid ruled-surface data or degree range (d below d0), or data whose
    ladders exceed the budget."""


class ScheduleError(ValueError):
    """No valid schedule at this degree; carries the failing constraint."""


#: The most ladder steps one call may build or read: a ladder of t steps is
#: refused before it reaches t > MAX_LADDER_STEPS, and the block scans of
#: ``minimal_d`` and ``multiplier_degree_bound`` (t steps read per block)
#: once they pass the budget.  t grows like e^(2 sqrt(s)), so without the
#: budget a moderate s or a long degree range would run for hours.
MAX_LADDER_STEPS = 500_000

#: The fields of ruled data JSON, in the order of ``RuledData``.
_JSON_FIELDS = ("minusK_dot_H", "H_dot_HplusK", "chiO", "ell")


@dataclass(frozen=True)
class RuledData:
    """Numeric invariants of an embedded ruled surface and its blow-up.

    minusK_dot_H is -K.H > 0 (equal on the surface and its blow-up at a
    point), H_dot_HplusK = H.(H+K) = 2g - 2 for the sectional genus g, chiO
    the Euler characteristic of the structure sheaf (1 - genus of the base
    curve), and ell the smallest multiplier making ell*H - K big and nef.
    ell is taken on trust: nothing here checks it against negative curves.
    """

    minusK_dot_H: int
    H_dot_HplusK: int
    chiO: int
    ell: int

    def __post_init__(self) -> None:
        if self.minusK_dot_H < 1:
            raise RuledDataError("the hyperplane class must pair positively with -K")
        if self.H_dot_HplusK % 2 != 0:
            raise RuledDataError("H.(H+K) must be even (it equals 2g - 2)")
        if self.chiO > 1:
            raise RuledDataError("chi(O) exceeds 1: the surface cannot be ruled")
        if self.ell < 0:
            raise RuledDataError("ell must be nonnegative")

    @property
    def sectional_genus(self) -> int:
        return self.H_dot_HplusK // 2 + 1

    @property
    def elliptic_mode(self) -> bool:
        """Sectional genus one on a nonrational surface: the two-step ladder applies."""
        return self.H_dot_HplusK == 0 and self.chiO <= 0

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in _JSON_FIELDS}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RuledData":
        """The data of a JSON object holding the four fields as integers
        (booleans, floats and strings are refused, not converted)."""
        if not isinstance(data, dict):
            raise RuledDataError("ruled data JSON must be an object")
        for name in _JSON_FIELDS:
            if name not in data:
                raise RuledDataError(f"missing field {name!r}")
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise RuledDataError(f"field {name!r} must be an integer, got {reprlib.repr(value)}")
        return cls(*(data[name] for name in _JSON_FIELDS))


def nef_threshold(a_squared: int, a_dot_k: int, k_squared: int) -> int:
    """Smallest ell >= 0 with (ell*H - K_Z)^2 > 0 on the blow-up.

    The square is ell^2 A^2 - 2 ell A.K + K^2 - 1.  Square positivity is
    one condition of the Nakai test; positivity on each negative curve of
    the surface is not checked here, so the value is a threshold the caller
    must trust.
    """
    if a_squared <= 0:
        raise RuledDataError("A^2 must be positive for an ample class")
    if k_squared > 1:
        return 0
    # K^2 - 1 <= 0, so the least root is <= 0 and ell is the least integer
    # past the greatest root (A.K + sqrt(disc)) / A^2
    disc = a_dot_k * a_dot_k - a_squared * (k_squared - 1)
    return (a_dot_k + math.isqrt(disc)) // a_squared + 1


def exceptional_margin(data: RuledData, d: int, m: int, k: int) -> int:
    """Margin of the step from dH - mE to dH - (m+k)E.

    Positive means the deeper divisor supports multipliers for the shallower
    one.  Requires d >= 2m + k + ell.
    """
    if k < 1:
        raise ScheduleError("k must be positive")
    if m < 0:
        raise ScheduleError("m must be nonnegative")
    if d < 2 * m + k + data.ell:
        raise ScheduleError(f"degree too small: d = {d} is below 2m + k + ell = {2 * m + k + data.ell}")
    return 2 * d * data.minusK_dot_H - (2 * m + k) * (k + 1) - data.chiO


def descent_margin(data: RuledData, d: int, m: int) -> int:
    """Margin of the final step from dH - mE to (d-1)H.  Requires d >= 2m + ell."""
    if m < 0:
        raise ScheduleError("m must be nonnegative")
    if d < 2 * m + data.ell:
        raise ScheduleError(f"degree too small: d = {d} is below 2m + ell = {2 * m + data.ell}")
    return (1 - 2 * d) * data.H_dot_HplusK + m * (m - 1) - data.chiO


def minimal_transfer_s(data: RuledData) -> int:
    """Smallest positive integer s with s * (-K.H) > H.(H+K)."""
    return max(1, data.H_dot_HplusK // data.minusK_dot_H + 1)


@lru_cache(maxsize=64)
def minimal_transfer_t(s: int) -> int:
    """Smallest t with 1/2 + ... + 1/(t+1) > 2(1 + sqrt(s)), exactly.

    The rational partial sum is tracked through scaled-integer lower/upper
    bounds (the comparison against 2 + 2 sqrt(s) squares both sides, so it
    stays in integers); only if the bounds ever straddle the threshold does
    the code fall back to one exact evaluation, ``_harmonic_exceeds``.  The
    partial sum is never equal to the threshold, so the decision is always
    exact.  A t past ``MAX_LADDER_STEPS`` is refused with RuledDataError.
    """
    scale = 1 << 64
    target = 4 * s * scale * scale
    lo = 0  # floor-scaled partial sum; true value lies in [lo, lo + t]
    t = 0
    while True:
        t += 1
        if t > MAX_LADDER_STEPS:
            raise RuledDataError(
                f"s = {s} needs a ladder of more than the budget of {MAX_LADDER_STEPS} steps"
            )
        lo += scale // (t + 1)
        hi = lo + t
        lo_shift = lo - 2 * scale
        hi_shift = hi - 2 * scale
        if hi_shift <= 0 or hi_shift * hi_shift <= target:
            continue  # definitely below the threshold
        if lo_shift > 0 and lo_shift * lo_shift > target:
            return t  # definitely above
        if _harmonic_exceeds(t, s):
            return t


def _harmonic_exceeds(t: int, s: int) -> bool:
    """Whether 1/2 + ... + 1/(t+1) > 2(1 + sqrt(s)), with the sum kept as
    p/q for q = lcm(2, ..., t+1)."""
    q = math.lcm(*range(2, t + 2))
    p = sum(q // i for i in range(2, t + 2))
    return p > 2 * q and (p - 2 * q) ** 2 > 4 * s * q * q


@dataclass(frozen=True)
class Schedule:
    """A validated ladder dH, dH - m_1 E, ..., dH - m_t E, (d-1)H.

    In elliptic mode the ladder is the two-step one (k = [2]); s and
    generic_t always carry the generic ladder parameters for reporting.
    """

    d: int
    s: int
    generic_t: int
    k: tuple[int, ...]
    m: tuple[int, ...]  # m_0 = 0, m_j = k_1 + ... + k_j
    step_margins: tuple[int, ...]
    final_margin: int
    mode: str  # "generic" | "elliptic"

    @property
    def t(self) -> int:
        return len(self.k)

    @property
    def ladder(self) -> tuple[tuple[int, int], ...]:
        """Divisor ladder as (H-coefficient, E-coefficient) pairs."""
        rungs = [(self.d, 0)]
        rungs += [(self.d, -mj) for mj in self.m[1:]]
        rungs.append((self.d - 1, 0))
        return tuple(rungs)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "s": self.s,
            "t": self.t,
            "generic_t": self.generic_t,
            "k": list(self.k),
            "ladder": [list(r) for r in self.ladder],
            "step_margins": list(self.step_margins),
            "final_margin": self.final_margin,
            "mode": self.mode,
        }


def build_schedule(data: RuledData, d: int) -> Schedule:
    """Construct and verify the transfer ladder from dH to (d-1)H.

    Generic mode picks each k_j as the largest integer at most
    sqrt(L)/2j - 1 for L = 2d(-K.H) - chi(O), that is isqrt(L) // 2j - 1
    (floor(sqrt(L)/q) = floor(isqrt(L)/q), so one square root serves the
    whole ladder), verifies the companion lower bound sqrt(L)/2(j+1) <= k_j,
    and evaluates every step margin directly.
    Elliptic mode validates the short ladder dH, dH - 2E, (d-1)H.
    """
    s = minimal_transfer_s(data)
    generic_t = minimal_transfer_t(s)
    if data.elliptic_mode:
        m1 = exceptional_margin(data, d, 0, 2)
        m2 = descent_margin(data, d, 2)
        if m1 <= 0 or m2 <= 0:
            raise ScheduleError(f"d too small: elliptic margins ({m1}, {m2})")
        return Schedule(d, s, generic_t, (2,), (0, 2), (m1,), m2, "elliptic")
    lam = 2 * d * data.minusK_dot_H - data.chiO
    if lam < 0:
        raise ScheduleError("d too small: negative ladder budget")
    root = math.isqrt(lam)
    ks: list[int] = []
    ms = [0]
    margins: list[int] = []
    for j in range(1, generic_t + 1):
        kj = root // (2 * j) - 1
        if kj < 1:
            raise ScheduleError(f"d too small: empty k-interval at step {j}")
        if 4 * (j + 1) * (j + 1) * kj * kj < lam:
            raise ScheduleError(
                f"no schedule at d = {d}: k_{j} misses its lower bound (larger degrees can miss it too)"
            )
        margin = exceptional_margin(data, d, ms[-1], kj)
        if margin <= 0:
            raise ScheduleError(f"d too small: step {j} margin {margin}")
        ks.append(kj)
        ms.append(ms[-1] + kj)
        margins.append(margin)
    final = descent_margin(data, d, ms[-1])
    if final <= 0:
        raise ScheduleError(f"d too small: final margin {final}")
    return Schedule(d, s, generic_t, tuple(ks), tuple(ms), tuple(margins), final, "generic")


def _block(data: RuledData, r: int, t: int) -> tuple[int, int, int, int]:
    """(start, end, lo, hi): the degrees start..end whose ladder budget
    L = 2d(-K.H) - chi(O) has isqrt(L) = r, and lo..hi, those of them with a
    generic schedule (lo > hi when none has one).

    On a block every k_j = r // 2j - 1, and so every m_j, is fixed, so each
    check of ``build_schedule`` is a bound on d or needs no test.  With
    a = -K.H, b = H.(H+K) and H_j = 1 + 1/2 + ... + 1/j:

    - k_j >= 1 for every j exactly when k_t >= 1, that is r >= 4t;
    - the lower bounds 4(j+1)^2 k_j^2 >= L bound d above;
    - d >= 2m_t + ell, the descent's precondition, bounds d below and
      implies every step's d >= 2m_(j-1) + k_j + ell;
    - the step margins are positive: k_i + 1 <= r/2i gives
      (2m_(j-1) + k_j)(k_j + 1) < r^2 (H_(j-1) + 1/2j)/2j < r^2 <= L;
    - the descent margin (1 - 2d)b + m_t(m_t - 1) - chi(O) is positive.
      For b <= 0 it is at least m_t(m_t - 1) - 1 > 0, as d >= 1 and
      m_t >= t >= 2.  For b > 0: t is the least with
      H_(t+1) - 1 > 2 + 2 sqrt(s), so H_t > 2 + 2 sqrt(s), and
      k_j >= (r + 1)/2j - 2 gives m_t >= (r + 1)H_t/2 - 2t
      > sqrt(s)(r + 1) + 1 as r >= 4t.  Hence m_t(m_t - 1) - chi(O)
      >= (m_t - 1)^2 > s(r + 1)^2, while b(2d - 1) < (b/a) 2da
      <= (b/a)(r + 1)^2 < s(r + 1)^2, as 2da = L + chi(O) <= (r + 1)^2
      and b < sa.
    """
    a2, chi = 2 * data.minusK_dot_H, data.chiO
    start, end = -(-(r * r + chi) // a2), -(-((r + 1) ** 2 + chi) // a2) - 1
    ks = [r // (2 * j) - 1 for j in range(1, t + 1)]
    if ks[-1] < 1:
        return start, end, start, start - 1
    m = sum(ks)
    hi = (min((2 * (j + 1) * k) ** 2 for j, k in enumerate(ks, 1)) + chi) // a2
    return start, end, max(start, 2 * m + data.ell), min(end, hi)


def minimal_d(data: RuledData) -> int:
    """The least d such that every degree from d on has a schedule.

    Elliptic data: the short ladder needs d >= 4 + ell for its descent and
    nothing else, since chi(O) <= 0 makes its step margin
    2d(-K.H) - 6 - chi(O) and its descent margin 2 - chi(O) positive from
    d = 4 on.  So the answer is 4 + ell.

    Generic data, in the isqrt blocks of ``_block``, with a = -K.H and
    H_t = 1 + 1/2 + ... + 1/t.  Every degree of a block
    r >= r0 = max(4t^2 + 2t, r_C4) has a schedule:

    - k_t >= 1, as r >= 4t, so the step and descent margins are positive
      (``_block``);
    - the lower bounds: k_j >= (r + 1)/2j - 2, so 2(j+1)k_j >= r + 1 once
      r >= 4j^2 + 4j - 1, which covers j < t, and j = t from 4t^2 + 4t - 1
      on.  The blocks 4t^2 + 2t .. 4t^2 + 4t - 2 have k_t = 2t and
      2(t+1)k_t = 4t^2 + 4t.  Then 4(j+1)^2 k_j^2 >= (r + 1)^2 > L;
    - d >= 2m_t + ell: k_j <= r/2j - 1 gives 2m_t <= r H_t - 2t, and the
      least degree of the block is at least (r^2 + chi(O))/2a, so it holds
      once r^2 + chi(O) >= 2a(r H_t - 2t + ell).  r_C4 is the first
      integer past the larger root of that quadratic, with H_t bounded
      above in 64-bit fixed point (the sum of ceil(2^64/j)).

    The whole block 4t^2 + 2t - 1 fails at j = t: there k_t = 2t - 1 and
    2(t+1)k_t = r - 1 < sqrt(L).  So blocks are scanned downward from
    r0 - 1 to the first one holding a degree without a schedule, and the
    answer is the least degree above that one.  Each block reads t ladder
    steps; a scan past ``MAX_LADDER_STEPS`` of them is refused with
    RuledDataError.
    """
    a, chi, ell = data.minusK_dot_H, data.chiO, data.ell
    if data.elliptic_mode:
        return 4 + ell
    t = minimal_transfer_t(minimal_transfer_s(data))
    scale = 1 << 64
    h_up = sum(-(-scale // j) for j in range(1, t + 1))  # at least scale * H_t
    disc = (a * h_up) ** 2 - scale * scale * (chi + 4 * a * t - 2 * a * ell)
    r0 = r = max(4 * t * t + 2 * t, (a * h_up + math.isqrt(max(disc, 0))) // scale + 1)
    while True:
        r -= 1
        if (r0 - r) * t > MAX_LADDER_STEPS:
            raise RuledDataError(f"the minimal degree needs more than the budget of {MAX_LADDER_STEPS} ladder steps")
        start, end, lo, hi = _block(data, r, t)
        if start <= end and (lo > start or hi < end):
            return lo if lo <= hi == end else end + 1


@dataclass(frozen=True)
class DegreeBound:
    """Total multiplier degree of the ladder chain from dH down to d0 H."""

    d: int
    d0: int
    total_H_degree: int
    steps_counted: int
    steps_per_level: int
    steps_quoted: int  # the looser (t+2)(d-d0) step count quoted alongside the chain


def multiplier_degree_bound(data: RuledData, d: int, d0: int) -> DegreeBound:
    """Exact total H-degree of the multiplier chain from dH down to d0 H.

    Every level delta in (d0, d] must have a schedule; d0 itself need not,
    and neither need d0 be at least ``minimal_d``.  The levels are checked
    once per isqrt block (``_block``; in elliptic mode the levels with a
    schedule are those from ``minimal_d`` on), and the first level of the
    chain without a schedule raises the ScheduleError of ``build_schedule``.
    A level's ladder of t steps (t = 1 in elliptic mode) plus the descent
    has multipliers on twice each step's target divisor, so it contributes
    t * delta + (delta - 1); the total is summed in closed form.  The
    base-case constant is kept symbolic (zero here).  Each generic block
    read charges its t ladder steps, as in ``minimal_d``, and a read past
    ``MAX_LADDER_STEPS`` of them is refused with RuledDataError; the one
    elliptic check charges none.  A reversed range, d < d0, is refused too.
    """
    if d < d0:
        raise RuledDataError("d must be at least d0")
    t = minimal_transfer_t(minimal_transfer_s(data))
    per_level = (1 if data.elliptic_mode else t) + 1
    level, steps_read = d, 0
    while level > d0:
        if data.elliptic_mode:
            lo, hi = minimal_d(data), level
        else:
            steps_read += t
            if steps_read > MAX_LADDER_STEPS:
                raise RuledDataError(
                    f"the levels from {d} down to {d0} read more than the budget of {MAX_LADDER_STEPS} ladder steps"
                )
            lo, hi = _block(data, math.isqrt(max(2 * level * data.minusK_dot_H - data.chiO, 0)), t)[2:]
        if not lo <= level <= hi:
            build_schedule(data, level)  # raises its own ScheduleError
        level = min(lo, level) - 1
    return DegreeBound(
        d=d,
        d0=d0,
        total_H_degree=per_level * (d * (d + 1) - d0 * (d0 + 1)) // 2 - (d - d0),
        steps_counted=per_level * (d - d0),
        steps_per_level=per_level if d > d0 else 0,
        steps_quoted=(t + 2) * (d - d0),
    )


# -- example data ----------------------------------------------------------------


def genus_example_data(kind: str, g: int = 0, m: int = 0) -> RuledData:
    """Preset invariants for the worked ruled-surface families.

    "elliptic_segre": the product of an elliptic curve with a line in its
    degree-6 Segre embedding (sectional genus 1, chi(O) = 0, ell = 1).

    "canonical_times_line": the product of a non-hyperelliptic genus-g curve
    with a line, embedded by m times (section + canonical fiber); here
    -K.H = m(2g-2) and H.(H+K) = (2m^2 - m)(2g-2), so the step count grows
    with m.
    """
    if kind == "elliptic_segre":
        return RuledData(6, 0, 0, nef_threshold(6, -6, 0))
    if kind == "canonical_times_line":
        if g < 3 or m < 1:
            raise RuledDataError("need genus >= 3 and multiplier m >= 1")
        omega = 2 * g - 2
        ell = nef_threshold(m * m * 2 * omega, -m * omega, 8 * (1 - g))
        return RuledData(m * omega, (2 * m * m - m) * omega, 1 - g, ell)
    raise RuledDataError(f"unknown example kind {kind!r}")
