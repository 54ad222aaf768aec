import csv

import pytest

from suitesearch.cli import main, read_config
from suitesearch.harness import RAW_COLUMNS


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_smoke_run_writes_csvs(self, tmp_path, capsys):
        code = run_cli(
            "run", "--family", "gradient", "--z-list", "1,3", "--budget", "50",
            "--reps", "2", "--seed", "42", "--out-dir", str(tmp_path),
        )
        assert code == 0
        with (tmp_path / "raw.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 4
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "manifest.txt").exists()
        assert "16 runs" in capsys.readouterr().out

    def test_algorithm_subset(self, tmp_path):
        code = run_cli(
            "run", "--family", "deceptive", "--z-list", "2", "--budget", "40",
            "--reps", "1", "--seed", "1", "--algorithms", "mio,random",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        with (tmp_path / "raw.csv").open() as fh:
            algos = {row["algorithm"] for row in csv.DictReader(fh)}
        assert algos == {"mio", "random"}

    def test_negative_z_is_a_flag_error(self, tmp_path, capsys):
        code = run_cli("run", "--family", "plateau", "--z-list", "-3",
                       "--out-dir", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "--z-list" in err

    def test_unknown_family_is_a_flag_error(self, capsys):
        assert run_cli("run", "--family", "mesa") == 2
        assert "--family" in capsys.readouterr().err

    def test_unknown_algorithm_is_a_flag_error(self, capsys):
        assert run_cli("run", "--family", "gradient", "--algorithms", "mio,abc") == 2
        assert "--algorithms" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "given, message",
        [
            (("--algorithms", ""), "--algorithms: empty list"),
            (("--algorithms", " , "), "--algorithms: empty list"),
            (("--algorithms", "mio,random,mio"), "--algorithms: 'mio' given twice"),
            (("--z-list", "5,5"), "--z-list: 5 given twice"),
            (("--z-list", "5,05"), "--z-list: 5 given twice"),
            (("--seed", "1e3"), "--seed: '1e3' is not an integer"),
        ],
        ids=["empty", "blank", "repeated", "z-repeated", "z-same-int", "not-int"],
    )
    def test_empty_or_repeated_list_is_a_flag_error(
        self, given, message, source, tmp_path, capsys
    ):
        if source == "config":
            cfg = tmp_path / "plan.cfg"
            key = given[0].lstrip("-").replace("-", "_")
            cfg.write_text(f"{key} = {given[1]}\n")
            given = ("--config", str(cfg))
        code = run_cli(
            "run", "--family", "gradient", "--budget", "10", "--reps", "2",
            *given, "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_family_is_reported(self, capsys):
        assert run_cli("run") == 2
        assert "--family" in capsys.readouterr().err

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(
            "family = gradient\nz_list = 2\nbudget = 30\nreps = 1\n"
            f"seed = 9\nalgorithms = random\nout_dir = {tmp_path / 'out'}\n"
        )
        assert run_cli("run", "--config", str(cfg)) == 0
        assert (tmp_path / "out" / "raw.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("family = gradient\nz_list = 2\nbudget = 30\nreps = 1\nseed = 9\n")
        out = tmp_path / "flagged"
        code = run_cli(
            "run", "--config", str(cfg), "--algorithms", "random",
            "--out-dir", str(out), "--reps", "2",
        )
        assert code == 0
        with (out / "raw.csv").open() as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_sut_family_runs_without_z_list(self, tmp_path):
        code = run_cli(
            "run", "--family", "triangle", "--budget", "60", "--reps", "1",
            "--seed", "3", "--algorithms", "random", "--out-dir", str(tmp_path),
        )
        assert code == 0

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, value, line",
        [
            ("family", "triangle", "family = triangle"),
            ("z_list", "2,1", "params = 2,1"),
            ("budget", "7", "budget = 7"),
            ("reps", "2", "repetitions = 2"),
            ("seed", "3", "base_seed = 3"),
            ("algorithms", "wts,random", "algorithms = wts,random"),
        ],
    )
    def test_each_option_sets_its_field(self, key, value, line, source, tmp_path):
        # A subject takes parameter 0 only, so z_list is read on a landscape.
        given = {"family": "gradient" if key == "z_list" else "triangle",
                 "budget": "5", "reps": "1", "algorithms": "random"}
        given[key] = value
        out = tmp_path / "out"
        argv = ["run", "--out-dir", str(out)]
        if source == "config":
            cfg = tmp_path / "plan.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
            del given[key]
        for name, text in given.items():
            argv += ["--" + name.replace("_", "-"), text]
        assert run_cli(*argv) == 0
        assert line in (out / "manifest.txt").read_text().splitlines()

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        # A misspelt key would otherwise leave its setting at the default.
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("family = gradient\nz_list = 1\nbudgte = 10\nreps = 1\n")
        code = run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}: unknown key 'budgte'" in err
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("family = gradient\nz_list = 1\nbudget = 10\nbudget = 20\nreps = 1\n")
        code = run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"{cfg}:4: key 'budget' given twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "family, z, message",
        [
            ("gradient", "0", "--z-list: target count 0 must be >= 1"),
            ("infeasible", "3,-1", "--z-list: infeasible count -1 is negative"),
            ("triangle", "5", "--z-list: subject triangle takes parameter 0 only, got 5"),
        ],
        ids=["gradient", "infeasible", "subject"],
    )
    def test_z_below_family_minimum_is_a_flag_error(self, family, z, message, tmp_path, capsys):
        code = run_cli(
            "run", "--family", family, "--z-list", z, "--budget", "10", "--reps", "1",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_range_is_not_a_run_option(self, source, tmp_path, capsys):
        # The landscape range is fixed; a plan has no setting for it.
        argv = ["run", "--family", "gradient", "--z-list", "1", "--budget", "10",
                "--reps", "1", "--out-dir", str(tmp_path / "out")]
        if source == "flag":
            with pytest.raises(SystemExit) as info:
                run_cli(*argv, "--r", "500")
            assert info.value.code == 2
            assert "unrecognized arguments: --r 500" in capsys.readouterr().err
        else:
            cfg = tmp_path / "plan.cfg"
            cfg.write_text("r = 500\n")
            assert run_cli(*argv, "--config", str(cfg)) == 2
            assert f"{cfg}: unknown key 'r'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--fam", "triangle", "--reps", "1", "--budget", "20"),
            ("replicate-figures", "--rep", "1"),
            ("stats", "raw.csv", "--o", "summary.csv"),
        ],
        ids=["run", "replicate", "stats"],
    )
    def test_abbreviated_flag_is_refused(self, argv, tmp_path, monkeypatch, capsys):
        # argparse would take a unique prefix for the flag, so a removed
        # flag's prefix could silently set another one.
        monkeypatch.chdir(tmp_path)  # where any output would go
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestConfigFiles:
    def test_parse_flat_key_values(self, tmp_path):
        path = tmp_path / "plan.cfg"
        path.write_text(
            "# comment line\n"
            "family = plateau\n"
            "\n"
            "z_list = 1,2,3\n"
            "budget=500\n"
        )
        options = read_config(path)
        assert options == {"family": "plateau", "z_list": "1,2,3", "budget": "500"}

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("family = ok\nnonsense\n")
        with pytest.raises(ValueError, match="bad.cfg:2"):
            read_config(path)

    def test_repeated_key_reports_file_line_and_key(self, tmp_path):
        # The later line would otherwise win without a word.
        path = tmp_path / "twice.cfg"
        path.write_text("budget = 10\nreps = 1\nbudget = 20\n")
        with pytest.raises(ValueError, match="twice.cfg:3: key 'budget' given twice"):
            read_config(path)


class TestStatsCommand:
    def test_recomputes_identical_summary(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert run_cli(
            "run", "--family", "gradient", "--z-list", "1,2", "--budget", "60",
            "--reps", "3", "--seed", "5", "--out-dir", str(out),
        ) == 0
        original = (out / "summary.csv").read_bytes()
        redone = tmp_path / "again.csv"
        assert run_cli("stats", str(out / "raw.csv"), "--out", str(redone)) == 0
        assert redone.read_bytes() == original

    def test_missing_file_fails_cleanly(self, capsys):
        assert run_cli("stats", "/nonexistent/raw.csv") == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_raw_fails_cleanly(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("schema_version,family\n")
        assert run_cli("stats", str(raw)) == 2

    @pytest.mark.parametrize("out", ["raw.csv", None], ids=["out_flag", "named_summary"])
    def test_refuses_to_overwrite_its_input(self, out, tmp_path, capsys):
        # Summary rows written over the raw rows would leave nothing to
        # summarize next time.
        raw = self._raw(tmp_path)
        if out is None:
            raw = raw.rename(raw.with_name("summary.csv"))
            argv = ("stats", str(raw))
        else:
            argv = ("stats", str(raw), "--out", str(raw.parent / ".." / raw.parent.name / out))
        before = raw.read_bytes()
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert str(raw) in capsys.readouterr().err
        assert raw.read_bytes() == before

    def _raw(self, tmp_path):
        out = tmp_path / "exp"
        assert run_cli(
            "run", "--family", "gradient", "--z-list", "1", "--budget", "20",
            "--reps", "1", "--seed", "5", "--algorithms", "random",
            "--out-dir", str(out),
        ) == 0
        return out / "raw.csv"

    def test_missing_column_names_file_and_column(self, tmp_path, capsys):
        raw = self._raw(tmp_path)
        rows = list(csv.reader(raw.open(newline="")))
        drop = rows[0].index("covered")
        with raw.open("w", newline="") as fh:
            csv.writer(fh).writerows([r[:drop] + r[drop + 1:] for r in rows])
        capsys.readouterr()
        assert run_cli("stats", str(raw)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(raw) in err and "'covered'" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: line.rsplit(",", 3)[0],
            lambda line: line + ",7",
            # The summary divides by feasible_total.
            lambda line: ",".join(
                "0" if column == "feasible_total" else value
                for column, value in zip(RAW_COLUMNS, line.split(","))
            ),
            # The summary names each algorithm it compares.
            lambda line: ",".join(
                "foo" if column == "algorithm" else value
                for column, value in zip(RAW_COLUMNS, line.split(","))
            ),
            # A row of another schema may mean something else.
            lambda line: ",".join(
                "7" if column == "schema_version" else value
                for column, value in zip(RAW_COLUMNS, line.split(","))
            ),
            # No run covers more targets than its instance has.
            lambda line: ",".join(
                "99" if column == "covered" else value
                for column, value in zip(RAW_COLUMNS, line.split(","))
            ),
            lambda line: ",".join(
                "-4" if column == "suite_size" else value
                for column, value in zip(RAW_COLUMNS, line.split(","))
            ),
        ],
        ids=[
            "short", "long", "zero_feasible_total", "unknown_algorithm", "schema_version",
            "covered_above_targets", "negative_suite_size",
        ],
    )
    def test_bad_row_names_file_and_line(self, edit, tmp_path, capsys):
        raw = self._raw(tmp_path)
        lines = raw.read_text().splitlines()
        raw.write_text("\n".join(lines[:-1] + [edit(lines[-1])]) + "\n")
        capsys.readouterr()
        assert run_cli("stats", str(raw)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(raw) in err and f"line {len(lines)}" in err


class TestReplicationCommands:
    @pytest.mark.parametrize("command", ["run", "replicate-figures", "replicate-table1"])
    @pytest.mark.parametrize(
        "flags", [("--reps", "0"), ("--workers", "-3", "--reps", "1")], ids=["reps", "workers"]
    )
    def test_count_flags_checked_alike(self, command, flags, tmp_path, capsys):
        # --reps 1 keeps the run tiny should the --workers check be missing.
        extra = ("--family", "triangle", "--budget", "10") if command == "run" else ()
        code = run_cli(command, *extra, *flags, "--out-dir", str(tmp_path))
        assert code == 2
        assert flags[0] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "replicate-figures", "replicate-table1"])
    @pytest.mark.parametrize("flag", ["--reps", "--seed", "--workers"])
    def test_integer_flags_share_one_rule(self, command, flag, tmp_path, capsys):
        extra = ("--family", "triangle", "--budget", "10") if command == "run" else ()
        code = run_cli(command, *extra, flag, "1e3", "--out-dir", str(tmp_path))
        assert code == 2
        assert f"{flag}: '1e3' is not an integer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_replicate_figures_tiny(self, tmp_path):
        code = run_cli(
            "replicate-figures", "--out-dir", str(tmp_path), "--reps", "1",
            "--seed", "2", "--workers", "2",
        )
        assert code == 0
        for family in ("gradient", "plateau", "deceptive", "infeasible"):
            assert (tmp_path / f"fig-{family}" / "summary.csv").exists()
        with (tmp_path / "fig-infeasible" / "raw.csv").open() as fh:
            algos = {row["algorithm"] for row in csv.DictReader(fh)}
        assert "mio-nofds" in algos

    def test_replicate_table1_tiny(self, tmp_path):
        code = run_cli(
            "replicate-table1", "--out-dir", str(tmp_path), "--reps", "1",
            "--seed", "2", "--workers", "2",
        )
        assert code == 0
        for name in ("expint", "gammq", "triangle"):
            with (tmp_path / f"table1-{name}" / "raw.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 4
            assert all(int(r["evaluations"]) <= 5000 for r in rows)
