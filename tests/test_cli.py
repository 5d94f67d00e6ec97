import hashlib
import json
import time
from fractions import Fraction

import pytest

import gramexpect.cli as cli
from gramexpect import __version__, moment_matrix, paper_model, retry_seed
from gramexpect.matrices import matrix_to_json_str
from gramexpect.traces import TraceSequence

from conftest import run_cli

PAPER_TRACE_STRINGS = [
    "565/16",
    "210825/256",
    "93917125/4096",
    "42581180625/65536",
    "19338382478125/1048576",
    "8784040432265625/16777216",
    "3990026079685703125/268435456",
]

ATOMS_MODEL_JSON = (
    '{"type":"atoms","t":2,"atoms":['
    '{"vector":["1","0"],"prob":"1/2"},'
    '{"vector":["0","1"],"prob":"1/2"}]}\n'
)


def manifest_of(proc):
    lines = [line for line in proc.stderr.splitlines() if line.strip()]
    return json.loads(lines[-1])


class TestBasics:
    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"gramexpect {__version__}"

    def test_unknown_flag_exits_2(self):
        proc = run_cli("traces", "--paper", "--no-such-flag")
        assert proc.returncode == 2

    def test_missing_model_exits_2(self):
        proc = run_cli("expect")
        assert proc.returncode == 2
        assert "--model" in proc.stderr

    def test_float_probability_in_model_file_exits_2(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"type":"multinomial","t":2,"ell":2,"probs":[0.5,"1/2"]}')
        proc = run_cli("expect", "--model", str(path), "-N", "1")
        assert proc.returncode == 2
        assert "invalid model" in proc.stderr


class TestTraces:
    def test_paper_json_is_frozen(self):
        proc = run_cli("traces", "--paper", "-N", "7")
        assert proc.returncode == 0
        assert proc.stdout == json.dumps({"t": PAPER_TRACE_STRINGS}, separators=(",", ":")) + "\n"

    def test_csv_layout(self):
        proc = run_cli("traces", "--paper", "-N", "2", "--output", "csv")
        assert proc.stdout == "n,trace\n1,565/16\n2,210825/256\n"

    def test_cross_path_mismatch_exits_1(self, monkeypatch, capsys):
        # Force the silent Newton cross-check to disagree; the CLI must
        # report it through the dedicated exit code rather than succeed.
        monkeypatch.setattr(
            cli,
            "traces_from_char_coeffs",
            lambda coeffs, count: TraceSequence((Fraction(0),) * count),
        )
        code = cli.main(["traces", "--paper", "-N", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verification mismatch" in captured.err


class TestExpect:
    def test_paper_csv_decimals(self):
        proc = run_cli("expect", "--paper", "-N", "3", "--kind", "det", "--output", "csv")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "kind,n,exact,decimal",
            "det,0,1,1.00",
            "det,1,565/16,35.31",
            "det,2,6775/16,423.44",
            "det,3,42375/16,2648.44",
        ]

    def test_decimals_flag(self):
        proc = run_cli(
            "expect", "--paper", "-N", "1", "--kind", "perm", "--output", "csv", "--decimals", "4"
        )
        assert proc.stdout.splitlines()[-1] == "perm,1,565/16,35.3125"

    def test_each_single_path_runs(self):
        outputs = set()
        for path in ("recursion", "char", "egf"):
            proc = run_cli(
                "expect", "--paper", "-N", "4", "--kind", "both", "--path", path, "--output", "csv"
            )
            assert proc.returncode == 0
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_json_structure(self):
        proc = run_cli("expect", "--paper", "-N", "2", "--kind", "det", "--output", "json")
        body = json.loads(proc.stdout)
        assert body["values"]["det"][2] == {"n": 2, "exact": "6775/16", "decimal": "423.44"}


class TestMoments:
    def test_json_matches_library(self):
        proc = run_cli("moments", "--paper", "--output", "json")
        expected = matrix_to_json_str(moment_matrix(paper_model()).as_exact_matrix())
        assert proc.stdout == expected

    def test_json_round_trips_through_oracle(self, tmp_path):
        proc = run_cli("moments", "--paper", "--output", "json")
        path = tmp_path / "m.json"
        path.write_text(proc.stdout)
        det = run_cli("oracle", "bareiss", "--matrix", str(path))
        assert det.returncode == 0
        assert det.stdout == "9375/32\n"


class TestOracleCommand:
    def test_ryser_all_ones(self, tmp_path):
        path = tmp_path / "ones.json"
        path.write_text('{"rows":[["1","1","1"],["1","1","1"],["1","1","1"]]}\n')
        proc = run_cli("oracle", "ryser", "--matrix", str(path))
        assert proc.stdout == "6\n"

    def test_charpoly_json(self, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text('{"rows":[["1","0"],["0","1"]]}\n')
        proc = run_cli("oracle", "charpoly", "--matrix", str(path), "--output", "json")
        assert json.loads(proc.stdout) == {"coeffs": ["1", "2", "1"], "oracle": "charpoly"}

    def test_gram_output(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"rows":[["1","2"],["3","4"]]}\n')
        proc = run_cli("oracle", "gram", "--matrix", str(path), "--output", "json")
        assert json.loads(proc.stdout) == {"rows": [["10", "14"], ["14", "20"]]}

    def test_brute_force_from_model_file(self, tmp_path):
        path = tmp_path / "atoms.json"
        path.write_text(ATOMS_MODEL_JSON)
        proc = run_cli("oracle", "brute-det", "--model", str(path), "-n", "2")
        assert proc.returncode == 0
        assert proc.stdout == "1/2\n"

    def test_brute_force_needs_atoms_model(self):
        proc = run_cli("oracle", "brute-det", "--paper", "-n", "2")
        assert proc.returncode == 2
        assert "atoms model" in proc.stderr

    def test_missing_matrix_exits_2(self):
        proc = run_cli("oracle", "ryser")
        assert proc.returncode == 2

    def test_float_or_bool_matrix_entry_exits_2(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"rows": [[0.5, true], [1, 2]]}')
        proc = run_cli("oracle", "ryser", "--matrix", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_malformed_matrix_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = run_cli("oracle", "ryser", "--matrix", str(path))
        assert proc.returncode == 2


class TestSimulate:
    def test_json_deterministic_across_thread_counts(self):
        argv = (
            "simulate", "--paper", "-n", "8", "--reps", "6", "--max-index", "3",
            "--kind", "both", "--seed", "9",
        )
        one = run_cli(*argv, "--threads", "1")
        two = run_cli(*argv, "--threads", "2")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout
        body = json.loads(one.stdout)
        assert body["mode"] == "exact"
        assert body["seed"] == 9
        assert {s["i"] for s in body["stats"]["det"]} == {1, 2, 3}
        assert body["stats"]["perm"][0]["exact"] == "565/16"

    def test_csv_replicate_layout(self):
        proc = run_cli(
            "simulate", "--paper", "-n", "5", "--reps", "4", "--max-index", "2",
            "--kind", "det", "--seed", "1", "--output", "csv",
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "replicate,i,value"
        assert len(lines) == 1 + 4 * 2
        for line in lines[1:]:
            r, i, value = line.split(",")
            assert 0 <= int(r) < 4 and int(i) in (1, 2)
            float(value)

    def test_csv_gains_kind_column_for_both(self):
        proc = run_cli(
            "simulate", "--paper", "-n", "4", "--reps", "2", "--max-index", "2",
            "--kind", "both", "--seed", "1", "--output", "csv",
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "kind,replicate,i,value"
        assert {line.split(",")[0] for line in lines[1:]} == {"det", "perm"}

    def test_permanental_guard_exits_3(self):
        proc = run_cli(
            "simulate", "--paper", "-n", "60", "--reps", "5", "--max-index", "20",
            "--kind", "perm", "--guard-ops", "1000",
        )
        assert proc.returncode == 3
        assert "before sampling" in proc.stderr

    def test_perm_runs_at_hundreds_of_columns_under_default_guard(self):
        def z_ok(seed):
            proc = run_cli(
                "simulate", "--paper", "-n", "200", "--reps", "20", "--max-index", "4",
                "--kind", "perm", "--seed", str(seed),
            )
            assert proc.returncode == 0, proc.stderr
            stats = json.loads(proc.stdout)["stats"]["perm"]
            assert [s["i"] for s in stats] == [1, 2, 3, 4]
            return all(s["z_score"] is None or abs(s["z_score"]) <= 4.0 for s in stats)

        # One retry on an independent derived stream, as in the acceptance suite.
        assert z_ok(20240801) or z_ok(retry_seed(20240801))

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "-n", "400", "--reps", "2"),
            ("trend", "--n-list", "50,100", "--reps", "2"),
        ],
        ids=["simulate", "trend"],
    )
    def test_huge_ell_refused_before_sampling(self, tmp_path, capsys, argv):
        path = tmp_path / "huge.json"
        path.write_text('{"type":"multinomial","ell":1000000000,"probs":["1/2","1/2"]}')
        start = time.perf_counter()
        code = cli.main([*argv, "--model", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert "before sampling" in captured.err
        assert captured.out == ""
        assert elapsed < 1.0

    def test_max_index_above_n_exits_2(self):
        proc = run_cli("simulate", "--paper", "-n", "2", "--max-index", "3")
        assert proc.returncode == 2


class TestTrendCommand:
    def test_json_points(self):
        proc = run_cli(
            "trend", "--paper", "--n-list", "4,6", "--reps", "4", "--index", "1", "--seed", "3",
        )
        assert proc.returncode == 0
        body = json.loads(proc.stdout)
        assert [p["n"] for p in body["points"]] == [4, 6]
        for p in body["points"]:
            assert isinstance(p["stddev"], float)

    def test_perm_trend_at_tens_of_columns(self):
        proc = run_cli("trend", "--paper", "--kind", "perm", "--n-list", "50,100")
        assert proc.returncode == 0, proc.stderr
        body = json.loads(proc.stdout)
        assert body["kind"] == "perm"
        assert [p["n"] for p in body["points"]] == [50, 100]
        assert all(p["stddev"] > 0 for p in body["points"])

    def test_bad_n_list_exits_2(self):
        proc = run_cli("trend", "--paper", "--n-list", "6,4", "--reps", "2")
        assert proc.returncode == 2

    def test_perm_run_refused_at_its_largest_n_at_once(self, capsys):
        argv = ["trend", "--paper", "--kind", "perm", "--index", "4", "--n-list", "100,400,3000"]
        start = time.perf_counter()
        code = cli.main([*argv, "--reps", "20"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert "n = 3000" in captured.err
        assert captured.out == ""
        assert elapsed < 1.0

    def test_accepted_perm_run_stdout_unchanged(self, capsys):
        argv = ["trend", "--paper", "--kind", "perm", "--index", "2", "--n-list", "10,20"]
        assert cli.main([*argv, "--reps", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == (
            '{"i":2,"kind":"perm","points":[{"n":10,"stddev":185.63898590118336},'
            '{"n":20,"stddev":162.50302075464924}],"reps":3,"seed":5}\n'
        )


class TestEnvironmentOverrides:
    def test_env_sets_output(self):
        proc = run_cli("traces", "--paper", "-N", "1", env_extra={"GRAMEXPECT_OUTPUT": "csv"})
        assert proc.stdout.startswith("n,trace")

    def test_flag_beats_env(self):
        proc = run_cli(
            "traces", "--paper", "-N", "1", "--output", "json",
            env_extra={"GRAMEXPECT_OUTPUT": "csv"},
        )
        assert proc.stdout.startswith('{"t":')

    def test_env_decimals(self):
        proc = run_cli(
            "expect", "--paper", "-N", "1", "--kind", "det", "--output", "csv",
            env_extra={"GRAMEXPECT_DECIMALS": "4"},
        )
        assert proc.stdout.splitlines()[-1].endswith("35.3125")

    def test_env_seed_feeds_simulate(self):
        proc = run_cli(
            "simulate", "--paper", "-n", "3", "--reps", "2", "--max-index", "1",
            env_extra={"GRAMEXPECT_SEED": "123"},
        )
        assert json.loads(proc.stdout)["seed"] == 123
        assert manifest_of(proc)["seed"] == 123

    def test_invalid_env_integer_exits_2(self):
        proc = run_cli("traces", "--paper", env_extra={"GRAMEXPECT_THREADS": "abc"})
        assert proc.returncode == 2
        assert "GRAMEXPECT_THREADS" in proc.stderr


class TestManifest:
    def test_reproducibility_record(self):
        proc = run_cli("traces", "--paper", "-N", "2")
        manifest = manifest_of(proc)
        assert manifest["subcommand"] == "traces"
        assert manifest["version"] == __version__
        assert manifest["seed"] is None
        assert manifest["config"]["model"] == "builtin:paper"
        assert manifest["config"]["terms"] == 2
        assert manifest["wall_time_s"] >= 0
        digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        assert manifest["output_sha256"] == digest

    def test_no_manifest_on_failure(self):
        proc = run_cli("expect")
        assert proc.returncode == 2
        assert all("output_sha256" not in line for line in proc.stderr.splitlines())
