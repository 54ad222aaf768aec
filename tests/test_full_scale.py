"""The paper's scale: full-scale output pins and the acceptance gates.

The pins are the sha256 of ``raw.csv`` and ``summary.csv`` for every family
of ``replicate-figures`` and ``replicate-table1`` at seed 1, 100
repetitions and 2 workers. The golden pin (``test_golden.py``) covers small
plans only; these catch a change that alters results only at full scale.

The gates turn the paper's headline claims (AC1-AC6) into one test item per
criterion, each run at 100 repetitions from the plan and base seed it was
calibrated at. A bound the code is known to miss is an ``xfail(strict=True)``
that names the measured value, so a change that makes it pass shows too.
Each gate prints its measured line; ``-rA`` shows them.

Both batteries take several minutes, so the module runs only when
``SUITESEARCH_FULL_SCALE=1``:

    SUITESEARCH_FULL_SCALE=1 PYTHONPATH=src python -m pytest -q -rA tests/test_full_scale.py
"""

import hashlib
import os
import time

import pytest

from suitesearch.cli import main
from suitesearch.harness import ExperimentPlan, run_plan, summarize_rows, sut_plans
from suitesearch.problems import SUT_NAMES
from suitesearch.stats import mann_whitney_u, vargha_delaney_a12

pytestmark = pytest.mark.skipif(
    os.environ.get("SUITESEARCH_FULL_SCALE") != "1",
    reason="full-scale sweeps run only with SUITESEARCH_FULL_SCALE=1",
)

# command -> the output-directory prefix of its families
SWEEPS = {"replicate-figures": "fig", "replicate-table1": "table1"}

# family -> (command, sha256 of raw.csv, sha256 of summary.csv)
FULL_SCALE = {
    "gradient": (
        "replicate-figures",
        "76e69e83f6e27798bd027229df93950d3671883461a0c4021ee4cc01fc813aa3",
        "cd08f954049efe80399df2dd5c927ca38d038aac166131081053d96bf832d2cd",
    ),
    "plateau": (
        "replicate-figures",
        "0eee4ed2719939f0a109c6d7046a89c5f596afb98220ede3076ec58c35fb7e25",
        "a73a8ad142a93b755a8a746ff17d8cc13c9cb2626414877e4003184542b5ffb1",
    ),
    "deceptive": (
        "replicate-figures",
        "044419e172102b952e55c9f1a971e2b3518df11daa927e3fe374e81f6e35c871",
        "738e403c7ab77a04a671f208d0ca8f214d3c41dc815f9f030e821c7833d6da9b",
    ),
    "infeasible": (
        "replicate-figures",
        "43ec102dd491ffe3365de50b344bad65b33dba777164d8000cd243fd61d64e33",
        "c10178b1b075caf900a2ddf6929820d1f6c03cab30c65b9f23f9a01bf929a1b1",
    ),
    "expint": (
        "replicate-table1",
        "3e8acf90c15038145e54846fee68f12f2ade911da52202571b1fcd6cb5fb06e0",
        "30ff4c485cf12733ca36991d76060bf4034e25e68358968f903dbd1509afb6b1",
    ),
    "gammq": (
        "replicate-table1",
        "923ba1ac6bb6d7cfc22c9d58642e5f7be497c560e409d5cc250e60f9c790a1a2",
        "9d9bf3b767932366698cc88aeecfebdbbaf8df649fbe8ab94d77f981844e62a1",
    ),
    "triangle": (
        "replicate-table1",
        "c3994836b59b1ffb07b0371ca6e1137a1e29887f8aa42a692ce981ee516f53b4",
        "a85205175c65f8a8e2e1792f168daf4b0eb12068ae37478a9044539b1328634a",
    ),
}


@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    """Runs each command at most once; command -> its output directory."""
    dirs = {}

    def run(command):
        if command not in dirs:
            out = tmp_path_factory.mktemp(command)
            argv = [command, "--out-dir", str(out), "--seed", "1", "--reps", "100", "--workers", "2"]
            assert main(argv) == 0
            dirs[command] = out
        return dirs[command]

    return run


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family", sorted(FULL_SCALE))
def test_full_scale_outputs_pinned(family, sweep_dirs):
    command, raw_sha, summary_sha = FULL_SCALE[family]
    out = sweep_dirs(command) / f"{SWEEPS[command]}-{family}"
    assert (_sha256(out / "raw.csv"), _sha256(out / "summary.csv")) == (raw_sha, summary_sha)


GRADIENT_Z = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
DECEPTIVE_Z = (1, 2, 3, 4, 5, 20, 30, 40, 50, 60, 70, 80, 90, 100)

_LANDSCAPE = dict(repetitions=100, budget=1000)

# family -> the plan its gates read, at the base seed each was calibrated at
ACCEPTANCE_PLANS = {
    "gradient": ExperimentPlan(family="gradient", params=GRADIENT_Z, base_seed=1, **_LANDSCAPE),
    "plateau": ExperimentPlan(family="plateau", params=(30,), base_seed=2, **_LANDSCAPE),
    "deceptive": ExperimentPlan(family="deceptive", params=DECEPTIVE_Z, base_seed=3, **_LANDSCAPE),
    "infeasible": ExperimentPlan(
        family="infeasible",
        params=(100,),
        algorithms=("mio", "mio-nofds", "mosa", "wts", "random"),
        base_seed=4,
        **_LANDSCAPE,
    ),
    **sut_plans(base_seed=6, repetitions=100),
}

# deceptive z -> what MIO missed there when the gates were calibrated
AC3_MISSES = {
    20: "vs WTS p = 0.94, vs random p = 0.26",
    60: "vs MOSA p = 0.50, vs random p = 0.079",
    80: "vs WTS p = 0.20",
    90: "vs MOSA p = 0.63",
}


@pytest.fixture(scope="module")
def acceptance():
    """Runs each plan at most once at 2 workers; family -> (result, wall s)."""
    done = {}

    def run(family):
        if family not in done:
            start = time.perf_counter()
            result = run_plan(ACCEPTANCE_PLANS[family], workers=2)
            done[family] = result, time.perf_counter() - start
        return done[family]

    return run


def _fractions(result, param) -> dict:
    """Algorithm -> its mean fraction of feasible targets covered at ``param``,
    as summary.csv reports it."""
    return {
        row["algorithm"]: row["mean_feasible_fraction"]
        for row in summarize_rows(result.rows)
        if row["param"] == param
    }


def _covered(result, param, algorithm) -> list:
    """Targets covered by each of ``algorithm``'s runs at ``param``."""
    return [r.covered for r in result.rows if r.param == param and r.algorithm == algorithm]


def test_ac1_gradient_plan_runtime(acceptance):
    _, seconds = acceptance("gradient")
    print(f"AC1 gradient plan {seconds:.0f} s at 2 workers (bound <= 120 s)")
    assert seconds <= 120


def test_ac1_mio_mosa_parity(acceptance):
    result, _ = acceptance("gradient")
    gaps = {}
    for z in GRADIENT_Z:
        fraction = _fractions(result, z)
        gaps[z] = abs(fraction["mio"] - fraction["mosa"])
    worst = max(gaps, key=gaps.get)
    print(f"AC1 worst MIO/MOSA gap {gaps[worst]:.3f} at z={worst} (bound <= 0.10)")
    assert gaps[worst] <= 0.10


def test_ac5a_wts_random_parity(acceptance):
    result, _ = acceptance("gradient")
    a12 = vargha_delaney_a12(_covered(result, 20, "wts"), _covered(result, 20, "random"))
    print(f"AC5a gradient z=20 A12(WTS, random) {a12:.3f} (bound [0.4, 0.6])")
    assert 0.4 <= a12 <= 0.6


def test_ac2_mio_covers_plateau(acceptance):
    result, _ = acceptance("plateau")
    mio = _fractions(result, 30)["mio"]
    print(f"AC2 plateau z=30 MIO {mio:.3f} (bound [0.10, 0.35])")
    assert 0.10 <= mio <= 0.35


@pytest.mark.parametrize(
    "algorithm",
    [
        pytest.param("mosa", marks=pytest.mark.xfail(strict=True, reason="measured 0.076")),
        "wts",
        "random",
    ],
)
def test_ac2_others_stall_on_plateau(algorithm, acceptance):
    result, _ = acceptance("plateau")
    value = _fractions(result, 30)[algorithm]
    print(f"AC2 plateau z=30 {algorithm} {value:.3f} (bound < 0.05)")
    assert value < 0.05


@pytest.mark.parametrize("z", [z for z in DECEPTIVE_Z if z <= 5])
def test_ac3_random_leads_small_deceptive(z, acceptance):
    result, _ = acceptance("deceptive")
    fraction = _fractions(result, z)
    print(
        f"AC3 deceptive z={z} random {fraction['random']:.3f} MIO {fraction['mio']:.3f} "
        f"MOSA {fraction['mosa']:.3f} (bound random >= MIO, MOSA)"
    )
    assert fraction["random"] >= fraction["mio"]
    assert fraction["random"] >= fraction["mosa"]


@pytest.mark.parametrize(
    "z",
    [
        pytest.param(z, marks=pytest.mark.xfail(strict=True, reason=f"measured {AC3_MISSES[z]}"))
        if z in AC3_MISSES
        else z
        for z in DECEPTIVE_Z
        if z >= 20
    ],
)
def test_ac3_mio_beats_large_deceptive(z, acceptance):
    result, _ = acceptance("deceptive")
    fraction = _fractions(result, z)
    mio = _covered(result, z, "mio")
    p = {a: mann_whitney_u(mio, _covered(result, z, a)) for a in ("mosa", "wts", "random")}
    print(
        f"AC3 deceptive z={z} MIO {fraction['mio']:.3f} "
        + " ".join(f"{a} {fraction[a]:.3f} p={p[a]:.3g}" for a in p)
        + " (bound MIO higher, each p < 0.05)"
    )
    for a in p:
        assert fraction["mio"] > fraction[a] and p[a] < 0.05, a


def test_ac4_mio_covers_beside_infeasible(acceptance):
    result, _ = acceptance("infeasible")
    mio = _fractions(result, 100)["mio"]
    print(f"AC4 infeasible+100 MIO {mio:.3f} (bound >= 0.25)")
    assert mio >= 0.25


@pytest.mark.parametrize("algorithm", ["mosa", "wts", "random"])
def test_ac4_others_stall_beside_infeasible(algorithm, acceptance):
    result, _ = acceptance("infeasible")
    value = _fractions(result, 100)[algorithm]
    print(f"AC4 infeasible+100 {algorithm} {value:.3f} (bound < 0.10)")
    assert value < 0.10


@pytest.mark.parametrize("subject", SUT_NAMES)
def test_ac6_mio_covers_most_of_subject(subject, acceptance):
    result, _ = acceptance(subject)
    mean = {row["algorithm"]: row["mean_covered"] for row in summarize_rows(result.rows)}
    print(
        f"AC6 {subject} mean targets covered MIO {mean['mio']:.2f} MOSA {mean['mosa']:.2f} "
        f"WTS {mean['wts']:.2f} (bound MIO >= MOSA, WTS)"
    )
    assert mean["mio"] >= mean["mosa"]
    assert mean["mio"] >= mean["wts"]
