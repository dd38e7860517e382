"""Quadratic multiplier bounds on ruled surfaces via a single blow-up.

Blowing up one real point buys a ladder of one-step transfers that lowers
the form degree by one; iterating the ladder down to a base degree costs a
total multiplier degree quadratic in the starting degree.  The elliptic
product surface makes every constant explicit.

Run:  python demos/ruled_degree_bounds.py
"""

from sostransfer import (
    build_schedule,
    descent_margin,
    exceptional_margin,
    genus_example_data,
    minimal_d,
    multiplier_degree_bound,
)
from sostransfer.ruled import minimal_transfer_s, minimal_transfer_t

data = genus_example_data("elliptic_segre")
print("=" * 72)
print("Elliptic curve x line, Segre-embedded as a degree-6 surface")
print("=" * 72)
print(f"invariants: -K.H = {data.minusK_dot_H}, H.(H+K) = {data.H_dot_HplusK}, "
      f"chi(O) = {data.chiO}, ell = {data.ell}")
print(f"sectional genus {data.sectional_genus} -> the two-step ladder applies")
print()
print(f"every degree from {minimal_d(data)} on has a schedule")
for d in (5, 6, 10):
    sched = build_schedule(data, d)
    print(f"d = {d}: ladder {[list(r) for r in sched.ladder]}, "
          f"margins {list(sched.step_margins)} then {sched.final_margin}")
print()
print("the deepening margin grows by 12 per degree; the descent margin is")
print(f"always {descent_margin(data, 17, 2)}:")
print("  ", [exceptional_margin(data, d, 0, 2) for d in range(5, 11)])
print()

print("=" * 72)
print("Total multiplier degree down to the base degree 5")
print("=" * 72)
print(f"{'d':>4s} {'total H-degree':>14s} {'ladder steps':>13s}")
for d in (10, 20, 50, 100):
    bound = multiplier_degree_bound(data, d, 5)
    print(f"{d:4d} {bound.total_H_degree:14d} {bound.steps_counted:13d}")
e50 = multiplier_degree_bound(data, 50, 5).total_H_degree
e100 = multiplier_degree_bound(data, 100, 5).total_H_degree
print(f"\ndoubling d multiplies the total by {e100 / e50:.3f} (quadratic growth)")
print()

print("=" * 72)
print("Higher genus needs longer ladders")
print("=" * 72)
for g, m in ((3, 1), (3, 5)):
    gd = genus_example_data("canonical_times_line", g, m)
    s = minimal_transfer_s(gd)
    print(f"genus {g}, multiplier {m}: H.(H+K) / (-K.H) = "
          f"{gd.H_dot_HplusK // gd.minusK_dot_H}, s = {s}, ladder length t = {minimal_transfer_t(s)}")
gd = genus_example_data("canonical_times_line", 3, 1)
print(f"genus 3, multiplier 1: every degree from {minimal_d(gd):,} on has a schedule")
print()
print("the step count is not uniformly bounded over all ruled surfaces:")
print("it grows with the ratio above, which the genus-g family makes large.")
