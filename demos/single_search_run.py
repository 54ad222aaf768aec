# One archive-based search run on a plateau instance, step by step.
#
# The archive keeps a small population of candidate tests per target and a
# counter of samples since the target last improved. Sampling prefers the
# lowest counter, so effort flows to targets that are still paying off.

import random

from suitesearch import ArtificialProblem, run_mio

problem = ArtificialProblem.random_instance("plateau", random.Random(11), z=30)
budget = 1000  # fitness evaluations; the run counts its own
result = run_mio(problem, budget, random.Random(99))

print(f"plateau instance with z={problem.target_count}, budget {budget}")
print(f"covered {len(result.covered_targets)} targets in {result.evaluations} evaluations")
print()
# MIO's schedule is a function of the fraction of the budget spent, so a run
# with a smaller budget reaches its focused phase sooner: coverage after 200
# evaluations of a 1000-evaluation run is not what a 200-evaluation run
# covers. Hence one seeded run per budget.
print("coverage by budget (budget -> covered targets):")
for at in (50, 100, 200, 400, 600, 800, 1000):
    run = run_mio(problem, at, random.Random(99))
    print(f"  {at:>5}: {len(run.covered_targets)}")
print()
print("extracted suite (one best test per covered target, deduplicated):")
for test in result.suite:
    print(f"  id={test.id:>3}  x={test.inputs[0]:>5}  (optimum {problem.optima[test.id]})")
