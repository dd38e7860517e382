"""Multiplier degree bounds for nonnegative ternary forms.

A nonnegative ternary form of degree 2d has monomial support in twice the
degree-d triangle.  The classic iteration drops the degree by two per step;
choosing smarter support polygons drops it faster.  This script walks
through the polygon counts behind both pipelines and prints the degree
tables side by side.

Run:  python demos/ternary_forms.py
"""

from sostransfer import (
    LatticePolygon,
    hilbert_classic_bound,
    improved_ternary_bound,
    plan_transfer,
    transfer_check,
    veronese_triangle,
)

print("=" * 72)
print("One step of the classic iteration, degree 10 -> multiplier degree 8")
print("=" * 72)
P = veronese_triangle(5)
v = transfer_check(P, veronese_triangle(3))
print("P = degree-5 triangle, Q = degree-3 triangle (the classic 2-drop):")
print(f"  #(2Q) = {v.count_2Q}, h = {v.h}, #(P+Q)^o = {v.interior_PQ}  -> margin {v.margin}")
v = transfer_check(P, veronese_triangle(2))
print("trying to drop by three, Q = degree-2 triangle:")
print(f"  #(2Q) = {v.count_2Q}, h = {v.h}, #(P+Q)^o = {v.interior_PQ}  -> margin {v.margin}")
print("  margin zero: triangles alone cannot drop the degree by three.")
print()

prism = LatticePolygon([(0, 0), (3, 0), (2, 1), (0, 1)])
v = transfer_check(P, prism)
print("Replacing Q by the width-one prism with row lengths 3 and 2:")
print(f"  #(2Q) = {v.count_2Q}, h = {v.h}, #(P+Q)^o = {v.interior_PQ}  -> margin {v.margin}")
print("  Three translates of the prism disconnect the triangle, and those")
print("  three extra components rescue the inequality.  Every nonnegative")
print("  polynomial supported on twice the prism is a sum of squares, so a")
print("  single degree-6 multiplier settles degree-10 ternary forms (the")
print("  classic bound needed degree 8).")
print()

print("The planner finds that step by itself:")
plan = plan_transfer(veronese_triangle(5), families=("prisms", "veronese"))
for step in plan.steps:
    print(f"  {[tuple(v) for v in step.p.vertices]} -> {[tuple(v) for v in step.q.vertices]}")
print(f"  terminal: {plan.terminal_kind}, total multiplier degree {plan.total_multiplier_degree}")
print()

print("=" * 72)
print("Corner-biting pipeline vs the classic bound")
print("=" * 72)
print(f"{'d':>4s} {'classic':>8s} {'improved':>9s} {'steps':>6s}")
for d in (5, 10, 15, 20, 30, 40):
    plan, _ = improved_ternary_bound(d)
    print(f"{d:4d} {hilbert_classic_bound(d):8d} {plan.total_multiplier_degree:9d} {len(plan.steps):6d}")
print()
print("(both columns are total multiplier degrees in polynomial degree; the")
print(" improved total's leading term is d^2/3 against the classic d^2/2, but")
print(" at small d, such as d = 10, the classic chain is the cheaper one)")
print()
plan100, _ = improved_ternary_bound(100)
t100 = plan100.total_multiplier_degree
print(f"at d = 100 the improved total is {t100}, ratio {t100 / 100**2:.4f} of d^2")
