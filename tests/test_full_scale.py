"""Full-scale output pins: the sha256 of ``raw.csv`` and ``summary.csv`` for
every family of ``replicate-figures`` and ``replicate-table1`` at seed 1,
100 repetitions and 2 workers, the paper's scale.

The golden pin (``test_golden.py``) covers small plans only; these catch a
change that alters results only at full scale. Both sweeps take several
minutes, so the module runs only when ``SUITESEARCH_FULL_SCALE=1``:

    SUITESEARCH_FULL_SCALE=1 PYTHONPATH=src python -m pytest -q tests/test_full_scale.py
"""

import hashlib
import os

import pytest

from suitesearch.cli import main

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
