# Compare the four search algorithms on two landscape families.
#
# A scaled-down version of the full benchmark sweep: fewer repetitions, two
# target counts. The full experiment grids live behind the harness and the
# `suitesearch` command line; this script shows the raw library calls.

from suitesearch import ExperimentPlan, run_plan, vargha_delaney_a12, mann_whitney_u
from suitesearch.harness import summarize_rows

REPS = 20

for family in ("gradient", "plateau"):
    plan = ExperimentPlan(
        family=family, params=(10, 30), repetitions=REPS, budget=1000, base_seed=5
    )
    result = run_plan(plan, workers=2)
    summary = summarize_rows(result.rows)  # the rows of summary.csv
    print(f"{family}: mean fraction of targets covered over {REPS} runs")
    for z in plan.params:
        row = " ".join(f"{s['algorithm']}={s['mean_feasible_fraction']:.2f}"
                       for s in summary if s["param"] == z)
        print(f"  z={z:>3}: {row}")
    # Effect size of the archive-guided search against pure random sampling.
    mio = [r.covered for r in result.rows if r.param == 30 and r.algorithm == "mio"]
    rnd = [r.covered for r in result.rows if r.param == 30 and r.algorithm == "random"]
    print(f"  z=30 mio vs random: A12={vargha_delaney_a12(mio, rnd):.2f} "
          f"p={mann_whitney_u(mio, rnd):.2g}")
    print()

print("Expected picture: everyone does well on small gradient instances;")
print("only the per-target archive search keeps covering plateau targets")
print("once the population methods run out of budget.")
