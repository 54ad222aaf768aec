"""The benchmark's two workloads, built from the harness's public plan builders.

Both run the built-in sweeps unchanged except for the repetition count,
which is reduced so that one sweep fits several times into a measured run.
The seed given on the command line becomes every plan's ``base_seed``.
"""

from suitesearch.harness import figure_plans, sut_plans

# Repetitions per instance parameter. One `figures` sweep then runs 183 short
# cells (~725k evaluations), one `table1` sweep 6 long cells (~107k
# evaluations); each takes 5-8 s on two cores at two workers. With 2 cells per
# subject, each worker takes exactly one, so the slowest cell ends each plan
# without the run-to-run luck of which worker picks up an odd last cell.
REPETITIONS = {"figures": 3, "table1": 2}

BUILDERS = {"figures": figure_plans, "table1": sut_plans}


def plans(workload: str, seed: int) -> dict:
    """The workload's plans keyed by family, in the order they run."""
    return BUILDERS[workload](base_seed=seed, repetitions=REPETITIONS[workload])
