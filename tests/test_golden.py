"""Golden output pin: one small fixed plan per problem family, plus one
case that pins the float32 heuristic rows.

Every case runs all five algorithms in one process, and the sha256 of the
emitted ``raw.csv`` and ``summary.csv`` must match the hashes recorded here.
The other harness tests only compare runs of one version with each other;
this pin catches a refactor that changes results the same way everywhere.
A change that means to alter results updates these hashes and says why.
"""

import hashlib

import pytest

from suitesearch.harness import ALGORITHMS, ExperimentPlan, emit_csv, run_plan

LANDSCAPE = dict(params=(1, 5, 30), repetitions=2, budget=600)
SUBJECT = dict(params=(0,), repetitions=1, budget=1500)

PLANS = {
    "gradient": LANDSCAPE,
    "plateau": LANDSCAPE,
    "deceptive": LANDSCAPE,
    "infeasible": dict(LANDSCAPE, params=(0, 3, 20)),
    "expint": SUBJECT,
    "gammq": SUBJECT,
    "triangle": SUBJECT,
    # Rows widened from float32 to float64 (algorithms._dense_row) change
    # this case's raw.csv, while the seed-11 subject cases stay the same.
    "gammq-seed1": dict(SUBJECT, family="gammq", base_seed=1),
    # At the table1 budget WTS runs ~210 generations, against 5-13 in the
    # budget-1500 cases, so this case pins its generation loop.
    "triangle-5000": dict(SUBJECT, family="triangle", budget=5000),
}

# case -> (sha256 of raw.csv, sha256 of summary.csv)
GOLDEN = {
    "deceptive": (
        "2d8c89c87a6a06effcd081ff869035696a631b9c430997cca197a06a8c26d827",
        "7f5c76272f5cd3e97e37e8c95be773bd7211047efaf966946e15ce6ebdb18185",
    ),
    "expint": (
        "4dac169bb76d69a2da48967144b4731abfc964f6f2095fdb4ffc55f4cd54f637",
        "ea7e4854074d3ae48b925cbdf3501b97fd450da1cf322ebbcd4236bd1199b116",
    ),
    "gammq": (
        "3ba6604cad7f974a7608e0d2fe315f160928b687cdb71c200efa1908b10f59ae",
        "30867df7c8a8dd280067d6cfb38a2782edcd0d5cb78c7632806e66b7f05ad929",
    ),
    "gammq-seed1": (
        "9d465e1e9d7463997e4b68bddbb872d19806e1ded3285eb0994e32e613a2607b",
        "8ca921f53d66f8ba80363e3af23ab840d20c57daf08e2af23dc1806aaff23e39",
    ),
    "gradient": (
        "f860acbd4c9ae19660e160ff6eefd268f7b5e90919cfda33a7b4bd9ea59075c0",
        "4a73b6180c5d21c5fb2aafe3b73ee4b265a8ce734ae91bc05eed765e56ab211c",
    ),
    "infeasible": (
        "37fbc83cbe12c648131ff5af116767bc83261b21ad33ebc23c297f5871785714",
        "c62fb6ed7d99474142dd703033f2691b8ef33abede44bc09ab111f5201a3bce2",
    ),
    "plateau": (
        "84853616c3b99c3c1193ee67d8a300d91525f2345ec129fa3200095f37dbdab7",
        "b45cb72485293a57592d5310e3978a997fcf0aa572a1aa6b591c5c586c4bff68",
    ),
    "triangle": (
        "8da72e3290d1f8e195bfef3eb711e963b55a851f89f4dfaa0db2cc60d620190e",
        "d4e51181a0a992fe0a3c90b016b6e178ee17ee9a055b4ea74c3fb6bb9ab7da0b",
    ),
    "triangle-5000": (
        "a64b277813c3f2dc9eefd1f810c64c97a8be4d1924f798b14c72791f555c2804",
        "ed832e4bdecb0f2702e622693a642edb667ce1f303fd327dbd719862f67dace3",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(PLANS))
def test_outputs_match_golden_hashes(case, tmp_path):
    options = {"family": case, "base_seed": 11, **PLANS[case]}
    plan = ExperimentPlan(algorithms=ALGORITHMS, **options)
    paths = emit_csv(run_plan(plan, workers=1), tmp_path)
    assert (_sha256(paths["raw"]), _sha256(paths["summary"])) == GOLDEN[case]
