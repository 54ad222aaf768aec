# Coverage-driven unit testing of the instrumented numerical subjects.
#
# Each subject (triangle classifier, exponential integral, incomplete gamma
# complement) carries statement and branch-outcome targets. Branch targets
# score through the branch distance: 1 when taken, 1/(1+d) when the
# predicate ran but the outcome was missed by distance d, 0 when unreached.

import random

from suitesearch import SutProblem, TestCase, run_mio, run_random

problem = SutProblem("triangle")
print(f"triangle: {problem.target_count} targets "
      f"({problem.statement_count} statements, {2 * problem.branch_site_count} branch outcomes)")

# Branch distances in action: how close is (5, 5, 8) to an equilateral?
names = problem.target_names()
h = problem.evaluate(TestCase(0, (5, 5, 8)))
for name in ("branch:a==b:true", "branch:b==c:true", "stmt:ret_isosceles"):
    print(f"  {name:<24} h = {h.get(names.index(name), 0.0):.3f}")

print()
search = run_mio(problem, 5000, random.Random(1))
sampled = run_random(problem, 5000, random.Random(1))
print(f"archive search covered {len(search.covered_targets)}, "
      f"random sampling {len(sampled.covered_targets)}")
print("suite found by the search:")
for test in search.suite:
    a, b, c = test.inputs
    print(f"  triangle({a}, {b}, {c})")

missing = set(range(problem.target_count)) - set(sampled.covered_targets)
print()
print("targets random sampling missed:")
for k in sorted(missing):
    print(f"  {names[k]}")
