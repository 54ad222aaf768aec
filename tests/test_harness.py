import random

import pytest

from suitesearch import harness
from suitesearch.harness import (
    INFEASIBLE_GRID,
    Z_GRID,
    ExperimentPlan,
    RawRun,
    build_problem,
    derive_seed,
    emit_csv,
    figure_plans,
    read_raw_csv,
    run_plan,
    summarize_rows,
    sut_plans,
    write_summary,
)
from suitesearch.problems import ARTIFICIAL_KINDS, SUT_NAMES

SMALL = dict(repetitions=3, budget=60, base_seed=7)


def small_plan(**overrides):
    options = dict(family="gradient", params=(1, 3), **SMALL)
    options.update(overrides)
    return ExperimentPlan(**options)


class TestSeedDerivation:
    def test_deterministic_across_processes(self):
        # sha256-based, so stable forever; a changed format would break replays.
        assert derive_seed(1, "gradient", 3, 1000, 0) == derive_seed(1, "gradient", 3, 1000, 0)
        assert derive_seed("a", 1) != derive_seed("a", 2)

    def test_algorithm_tag_isolates_streams(self):
        cell = derive_seed(1, "plateau", 30, 1000, 5)
        assert derive_seed(cell, "mio") != derive_seed(cell, "mosa")


class TestRunPlan:
    def test_rows_cover_every_cell(self):
        result = run_plan(small_plan())
        assert len(result.rows) == 2 * 3 * 4  # params x reps x algorithms
        assert {r.param for r in result.rows} == {1, 3}
        assert all(r.evaluations <= 60 for r in result.rows)

    def test_same_plan_same_rows(self):
        a = run_plan(small_plan())
        b = run_plan(small_plan())
        assert a.rows == b.rows

    def test_worker_count_does_not_change_results(self):
        a = run_plan(small_plan())
        b = run_plan(small_plan(), workers=2)
        assert a.rows == b.rows

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_run_cell", ran.append)
        with pytest.raises(ValueError, match=r"^workers: must be >= 1$"):
            run_plan(small_plan(), workers=workers)
        assert not ran

    def test_algorithms_share_problem_instances(self):
        plan = small_plan()
        result = run_plan(plan)
        # Rebuild each instance from its derived seed: one optimum vector per
        # (param, rep), identical no matter which algorithm consumes it.
        for note in result.instance_notes:
            fields = dict(part.split("=") for part in note.split())
            problem = build_problem(
                fields["family"],
                int(fields["param"]),
                random.Random(int(fields["seed"])),
            )
            assert ",".join(map(str, problem.optima)) == fields["optima"]

    def test_invalid_cells_reported_not_run(self):
        # A bad parameter is reported when the plan is built, naming the
        # value, so no cell of the plan ever runs.
        with pytest.raises(ValueError, match="target count -3 must be >= 1"):
            small_plan(params=(2, -3))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_plan(small_plan(algorithms=("mio", "annealing")))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            run_plan(small_plan(family="ridge"))

    def test_duplicate_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_plan(small_plan(algorithms=("mio", "mio")))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(family="ridge"),
            dict(algorithms=()),
            dict(algorithms=("mio", "annealing")),
            dict(algorithms=("mio", "mio")),
            dict(repetitions=0),
            dict(budget=-1),
            dict(params=(3, 3)),
            dict(params=()),
            dict(params=(0,)),
            dict(family="infeasible", params=(-1,)),
            dict(params=(2.5,)),
            dict(family="triangle", params=(0, -5, "x")),
            dict(family="gammq", params=(1,)),
            dict(family="expint", params=(0.0,)),
            dict(params=(True,)),
            dict(family="triangle", params=(False,)),
        ],
    )
    def test_invalid_plan_rejected_at_construction(self, bad):
        # The message names the field at fault, the last one each case sets.
        *_, field = bad
        with pytest.raises(ValueError, match=rf"^{field}: "):
            small_plan(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(repetitions=2.5),
            dict(repetitions=True),
            dict(budget=10.5),
            dict(budget=False),
            dict(base_seed=True),
            dict(base_seed=1.0),
        ],
    )
    def test_mistyped_plan_rejected_at_construction(self, bad):
        # Each of these built a plan that later crashed in run_plan or in a
        # cell, ran a rounded-up budget, or drew other seeds than the int.
        (field,) = bad
        with pytest.raises(TypeError, match=rf"^{field}: must be an int, got "):
            small_plan(algorithms=("random",), **bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(algorithms="random"),
            dict(algorithms=b"random"),
            dict(algorithms=None),
            dict(params="13"),
            dict(params=b"ab"),
            dict(params=5),
        ],
    )
    def test_plan_list_given_as_one_value_rejected(self, bad):
        # A string or bytes was split into characters or byte values, and a
        # lone value failed with an error that named no field.
        (field,) = bad
        with pytest.raises(TypeError, match=rf"^{field}: must be a list of values, got "):
            small_plan(**bad)

    @pytest.mark.parametrize("family", ARTIFICIAL_KINDS + SUT_NAMES)
    def test_params_default_to_the_family_grid(self, family):
        # The plan alone states each family's grid; the built-in plans leave
        # params out and get the same values.
        if family in SUT_NAMES:
            grid = (0,)
        else:
            grid = INFEASIBLE_GRID if family == "infeasible" else Z_GRID
        assert ExperimentPlan(family=family).params == grid
        built_in = {**figure_plans(), **sut_plans()}
        assert built_in[family].params == grid

    def test_infeasible_family_counts_feasible_separately(self):
        plan = small_plan(family="infeasible", params=(3,), algorithms=("random",))
        result = run_plan(plan)
        for row in result.rows:
            assert row.feasible_total == 10
            assert row.target_count == 13
            assert row.feasible_covered <= row.covered


class TestCellFailures:
    """A failing cell names itself instead of failing anonymously."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_run_names_cell_algorithm_and_seed(self, workers, monkeypatch):
        real = harness.run_algorithm

        def flaky(name, problem, budget, rng, plan):
            if name == "wts" and len(problem.optima) == 3:
                raise ZeroDivisionError("boom")
            return real(name, problem, budget, rng, plan)

        monkeypatch.setattr(harness, "run_algorithm", flaky)
        plan = small_plan(algorithms=("mio", "wts"), repetitions=1)
        seed = derive_seed(derive_seed(7, "gradient", 3, 1000, 0), "wts")
        with pytest.raises(RuntimeError) as info:
            run_plan(plan, workers=workers)
        message = str(info.value)
        for part in ("family=gradient", "param=3", "rep=0", "algorithm=wts",
                     f"seed={seed}", "ZeroDivisionError('boom')"):
            assert part in message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_impossible_result_fails_its_cell(self, workers, monkeypatch):
        real = harness.run_algorithm

        def overdrawn(name, problem, budget, rng, plan):
            result = real(name, problem, budget, rng, plan)
            if name == "wts" and len(problem.optima) == 3:
                result.evaluations = budget + 1
            return result

        monkeypatch.setattr(harness, "run_algorithm", overdrawn)
        plan = small_plan(algorithms=("mio", "wts"), repetitions=1)
        seed = derive_seed(derive_seed(7, "gradient", 3, 1000, 0), "wts")
        with pytest.raises(RuntimeError) as info:
            run_plan(plan, workers=workers)
        message = str(info.value)
        for part in ("family=gradient", "param=3", "rep=0", "algorithm=wts",
                     f"seed={seed}", "evaluations=61", "budget=60"):
            assert part in message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_instance_names_cell(self, workers, monkeypatch):
        def broken(family, param, rng):
            raise ValueError("no instance")

        monkeypatch.setattr(harness, "build_problem", broken)
        with pytest.raises(RuntimeError) as info:
            run_plan(small_plan(params=(4,), repetitions=2), workers=workers)
        message = str(info.value)
        assert "family=gradient param=4 rep=" in message
        assert "ValueError('no instance')" in message


class TestCsvEmission:
    def test_emitted_files_are_deterministic(self, tmp_path):
        result = run_plan(small_plan())
        paths_a = emit_csv(result, tmp_path / "a")
        paths_b = emit_csv(run_plan(small_plan()), tmp_path / "b")
        assert paths_a["raw"].read_bytes() == paths_b["raw"].read_bytes()
        assert paths_a["summary"].read_bytes() == paths_b["summary"].read_bytes()

    def test_raw_round_trips_and_summary_recomputes_exactly(self, tmp_path):
        result = run_plan(small_plan())
        paths = emit_csv(result, tmp_path)
        rows = read_raw_csv(paths["raw"])
        assert rows == result.rows
        recomputed = tmp_path / "summary2.csv"
        write_summary(summarize_rows(rows), recomputed)
        assert recomputed.read_bytes() == paths["summary"].read_bytes()

    def test_header_only_when_no_valid_cells(self):
        # A plan with no runnable cell, which would emit header-only CSVs,
        # cannot be built.
        for params in ((-1,), ()):
            with pytest.raises(ValueError):
                small_plan(params=params)

    def test_manifest_records_plan_and_instances(self, tmp_path):
        result = run_plan(small_plan())
        text = emit_csv(result, tmp_path)["manifest"].read_text()
        lines = text.splitlines()
        first_instance = next(i for i, line in enumerate(lines) if line.startswith("instance ="))
        assert lines[0].startswith("written_at = ")
        assert lines[1:first_instance] == [
            "schema_version = 1",
            "family = gradient",
            "params = 1,3",
            "algorithms = mio,mosa,wts,random",
            "repetitions = 3",
            "budget = 60",
            "base_seed = 7",
        ]
        assert text.count("instance =") == 2 * 3

    def test_list_plan_writes_the_tuple_plans_manifest(self, tmp_path):
        # Lists are stored as tuples, so the manifest has one format.
        def plan_lines(plan, name):  # every manifest line after written_at
            path = emit_csv(run_plan(plan), tmp_path / name)["manifest"]
            return path.read_text().splitlines()[1:]

        listed = small_plan(params=[1, 3], algorithms=["random"])
        assert listed.params == (1, 3) and listed.algorithms == ("random",)
        tupled = small_plan(params=(1, 3), algorithms=("random",))
        assert plan_lines(listed, "list") == plan_lines(tupled, "tuple")

    def test_sut_manifest_lists_targets(self, tmp_path):
        plan = ExperimentPlan(
            family="triangle", params=(0,), algorithms=("random",),
            repetitions=1, budget=30, base_seed=1,
        )
        text = emit_csv(run_plan(plan), tmp_path)["manifest"].read_text()
        assert "sut_targets = 30" in text
        assert "target_0 = stmt:entry" in text


def synthetic_rows():
    rows = []
    for rep in range(6):
        rows.append(RawRun("gradient", 5, "mio", rep, rep, 5, 5, 5, 5, 5.0, 5, 100))
        rows.append(RawRun("gradient", 5, "random", rep, rep, 1, 1, 5, 5, 1.5, 1, 100))
    return rows


class TestSummaries:
    def test_better_than_uses_table_format(self):
        summary = summarize_rows(synthetic_rows())
        by_algo = {row["algorithm"]: row for row in summary}
        assert by_algo["mio"]["better_than"] == "RAND(1.00)"
        assert by_algo["random"]["better_than"] == ""
        assert by_algo["mio"]["mean_covered"] == 5.0
        assert by_algo["mio"]["mean_feasible_fraction"] == 1.0

    def test_no_better_than_without_significance(self):
        rows = synthetic_rows()[:4]  # two reps only: p stays above 0.05
        summary = summarize_rows(rows)
        by_algo = {row["algorithm"]: row for row in summary}
        assert by_algo["mio"]["better_than"] == ""
