# A walk through the four artificial landscapes.
#
# Every landscape has one integer input x in [0, r] per target and a single
# randomly placed optimum g; the heuristic maps the distance to g through
# rho(d) = 1/(1+d). The families differ in what happens away from g:
# a clean two-sided slope, a flat mediocre plateau above g, a second slope
# that deliberately points away from g, or no optimum at all.

import random

from suitesearch import ArtificialProblem, TestCase

r = 50
g = 30

print(f"heuristic profiles with r={r}, optimum g={g}")
print(f"{'x':>4} {'gradient':>10} {'plateau':>10} {'deceptive':>10}")
problems = {
    kind: ArtificialProblem(kind, (g,), r=r) for kind in ("gradient", "plateau", "deceptive")
}
for x in range(0, r + 1, 2):
    row = [problems[k].evaluate(TestCase(0, (x,)))[0] for k in problems]
    print(f"{x:>4} " + " ".join(f"{v:>10.4f}" for v in row))

print()
print("Things to notice:")
print(" - gradient falls off symmetrically on both sides of g")
print(" - plateau is constant for x > g, and that constant beats the")
print("   lower part of the slope: overshooting looks deceptively good")
print(" - deceptive rises again toward x = r, pulling search away from g")

# The infeasible family appends targets that no input can ever cover; their
# heuristic sits at rho(1) = 0.5 for every input with the matching id.
infeasible = ArtificialProblem.random_instance(
    "infeasible", random.Random(7), z=3, r=r
)
print()
print(f"infeasible instance: {infeasible.target_count} targets, "
      f"feasible ids {list(infeasible.feasible_targets())}")
for x in (0, 10, 40):
    h = infeasible.evaluate(TestCase(11, (x,)))
    print(f"  target 11 (infeasible), x={x:>2}: h = {h[11]}")
