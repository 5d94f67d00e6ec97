import hashlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

import gramexpect.cli as cli
import gramexpect.oracles as oracles
from gramexpect import __version__, moment_matrix, paper_model, retry_seed
from gramexpect.matrices import matrix_to_json
from gramexpect.scalars import canonical_json
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


@pytest.fixture
def files(tmp_path, monkeypatch):
    """GOLDEN_FILES written out, keyed "@name"; no GRAMEXPECT_ variable set."""
    for name in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(name)
    paths = {}
    for name, text in GOLDEN_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        paths[f"@{name}"] = str(path)
    return paths


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

    def test_importing_the_cli_leaves_the_process_pool_unloaded(self):
        # Only a run with child processes imports multiprocessing; --threads 1 runs in-process.
        code = (
            "import contextlib, io, sys, gramexpect.cli as cli\n"
            "loaded = ['multiprocessing' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['simulate', '--paper', '-n', '4', '--reps', '3', '--threads', '1'])\n"
            "print(code, *loaded, 'multiprocessing' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
        )
        assert (proc.returncode, proc.stdout.strip()) == (0, "0 False False")

    def test_float_probability_in_model_file_exits_2(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"type":"multinomial","t":2,"ell":2,"probs":[0.5,"1/2"]}')
        proc = run_cli("expect", "--model", str(path), "-N", "1")
        assert proc.returncode == 2
        assert "invalid model" in proc.stderr

    def test_deeply_nested_model_file_exits_2(self, tmp_path):
        # json's RecursionError used to end in a traceback and exit 1, the mismatch code.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        proc = run_cli("expect", "--model", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "gramexpect: invalid model: model file nests JSON too deeply to parse\n"


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

    def test_newton_route_off_at_t3_is_named(self, monkeypatch, capsys):
        real = cli.traces_from_char_coeffs

        def corrupted(coeffs, count):
            values = real(coeffs, count).values
            return TraceSequence((*values[:2], values[2] + 1, *values[3:]))

        monkeypatch.setattr(cli, "traces_from_char_coeffs", corrupted)
        code = cli.main(["traces", "--paper", "-N", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "gramexpect: verification mismatch: trace paths disagree: power vs newton first differ at "
            "n = 3 (93917125/4096 vs 93921221/4096)\n"
        )


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

    @pytest.mark.parametrize(
        "kind, route, fn",
        [
            ("det", "char", "det_sequence_from_char"),
            ("det", "egf", "egf_expand_det"),
            ("perm", "char", "expected_perm_from_char"),
            ("perm", "egf", "egf_expand_perm"),
        ],
    )
    def test_route_mismatch_exits_1(self, monkeypatch, capsys, kind, route, fn):
        # One route off by one at n = 3: the recursion cross-check must name it.
        real = getattr(cli, fn)

        def corrupted(*args):
            seq = real(*args)
            return replace(seq, values=(*seq.values[:3], seq.values[3] + 1, *seq.values[4:]))

        monkeypatch.setattr(cli, fn, corrupted)
        code = cli.main(["expect", "--paper", "-N", "5", "--kind", kind])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        message = f"verification mismatch: {kind} paths disagree: recursion vs {route} first differ at n = 3 ("
        assert message in captured.err


class TestMoments:
    def test_json_matches_library(self):
        proc = run_cli("moments", "--paper", "--output", "json")
        expected = canonical_json(matrix_to_json(moment_matrix(paper_model()))) + "\n"
        assert proc.stdout == expected

    def test_json_round_trips_through_oracle(self, tmp_path):
        proc = run_cli("moments", "--paper", "--output", "json")
        path = tmp_path / "m.json"
        path.write_text(proc.stdout)
        det = run_cli("oracle", "bareiss", "--matrix", str(path))
        assert det.returncode == 0
        assert det.stdout == "9375/32\n"


# A value for each flag an oracle may read; "@name" is a GOLDEN_FILES path.
ORACLE_FLAG_ARGS = {
    "--matrix": ["--matrix", "@matrix"],
    "--max-index": ["--max-index", "1"],
    "--guard-ops": ["--guard-ops", "100"],
    "--model": ["--model", "@atoms"],
    "--paper": ["--paper"],
    "-n": ["-n", "2"],
}
UNREAD_ORACLE_FLAGS = [
    (name, flag) for name, (reads, _) in cli.ORACLES.items() for flag in cli.ORACLE_FLAGS if flag not in reads
]


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

    def test_the_oracle_surface(self):
        # --output plus the flags each oracle reads, of the seven the subcommand parses.
        assert sum(1 + len(reads) for reads, _ in cli.ORACLES.values()) == 24
        assert len(UNREAD_ORACLE_FLAGS) == 39

    @pytest.mark.parametrize("name, flag", UNREAD_ORACLE_FLAGS, ids=[f"{n}{f}" for n, f in UNREAD_ORACLE_FLAGS])
    def test_flag_the_oracle_does_not_read_exits_2(self, files, capsys, name, flag):
        inputs = ["--matrix", "@matrix"] if "--matrix" in cli.ORACLES[name][0] else ["--model", "@atoms", "-n", "2"]
        base = ["oracle", name, *inputs]
        assert cli.main([files.get(arg, arg) for arg in base]) == 0
        capsys.readouterr()
        code = cli.main([files.get(arg, arg) for arg in base + ORACLE_FLAG_ARGS[flag]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"gramexpect: oracle {name} does not read {flag}\n"

    def test_guard_ops_environment_reaches_permpoly_only(self, files, capsys, monkeypatch):
        monkeypatch.setenv("GRAMEXPECT_GUARD_OPS", "abc")
        assert cli.main(["oracle", "ryser", "--matrix", files["@matrix"]]) == 0
        assert capsys.readouterr().out == "-79/18\n"
        assert cli.main(["oracle", "permpoly", "--matrix", files["@matrix"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "GRAMEXPECT_GUARD_OPS" in captured.err

    def test_brute_force_needs_n(self, files, capsys):
        assert cli.main(["oracle", "brute-perm", "--model", files["@atoms"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires -n" in captured.err

    def test_float_or_bool_matrix_entry_exits_2(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"rows": [[0.5, true], [1, 2]]}')
        proc = run_cli("oracle", "ryser", "--matrix", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "name, bound",
        [
            ("bareiss", oracles.BAREISS_MAX_SIZE),
            ("charpoly", oracles.CHARPOLY_MAX_SIZE),
            ("gram", oracles.GRAM_MAX_SIZE),
        ],
    )
    def test_elimination_oracle_past_its_bound_exits_3(self, tmp_path, capsys, name, bound):
        rng = Random(bound)
        size = bound + 1
        rows = [[str(rng.randint(-4, 4)) for _ in range(size)] for _ in range(size)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"rows": rows}))
        start = time.perf_counter()
        code = cli.main(["oracle", name, "--matrix", str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert f"guard: n = {size} exceeds max size {bound}" in captured.err
        assert elapsed < 1.0

    @staticmethod
    def run_gram(tmp_path, rows, cols):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"rows": [[str(i + j) for j in range(cols)] for i in range(rows)]}))
        return cli.main(["oracle", "gram", "--matrix", str(path), "--output", "json"])

    @pytest.mark.parametrize("rows, cols", [(1, 100), (100, 1)])
    def test_gram_oracle_at_its_bound_runs(self, tmp_path, capsys, rows, cols):
        assert self.run_gram(tmp_path, rows, cols) == 0
        g = json.loads(capsys.readouterr().out)["rows"]
        assert (len(g), len(g[0])) == (cols, cols)
        assert g[-1][-1] == str(sum((i + cols - 1) ** 2 for i in range(rows)))

    @pytest.mark.parametrize("rows, cols", [(1, 101), (101, 1)])
    def test_gram_oracle_refuses_rows_or_columns_past_its_bound(self, tmp_path, capsys, rows, cols):
        assert self.run_gram(tmp_path, rows, cols) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"gram guard: n = 101 exceeds max size {oracles.GRAM_MAX_SIZE}" in captured.err

    def test_malformed_matrix_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = run_cli("oracle", "ryser", "--matrix", str(path))
        assert proc.returncode == 2

    def test_invalid_json_matrix_file_names_it(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        proc = run_cli("oracle", "ryser", "--matrix", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("gramexpect: matrix file is not valid JSON: Expecting property name")
        assert proc.stderr.count("\n") == 1

    def test_deeply_nested_matrix_file_exits_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"rows": ' + "[" * 100_000)
        proc = run_cli("oracle", "gram", "--matrix", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "gramexpect: matrix file nests JSON too deeply to parse\n"


class TestSimulate:
    def test_spawned_children_give_the_same_stdout(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = os.path.join(os.path.dirname(__file__), "spawn_check.py")
        proc = subprocess.run(
            [sys.executable, script], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("spawned children give the same stdout:")

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


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "-n", "3", "--reps", "3", "--max-index", "2"),
        ("trend", "--n-list", "3,4", "--reps", "3"),
    ],
    ids=["simulate", "trend"],
)
def test_statistic_beyond_float_range_exits_2(tmp_path, capsys, argv):
    # |w|^2 = 10^400 for the first atom: exact, but past the largest float.
    path = tmp_path / "big.json"
    atoms = [{"vector": ["1" + "0" * 200], "prob": "1/2"}, {"vector": ["1"], "prob": "1/2"}]
    path.write_text(json.dumps({"type": "atoms", "atoms": atoms}))
    assert cli.main([*argv, "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gramexpect: determinant coefficient i = 1: a statistic exceeds float range\n"


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

    @pytest.mark.parametrize("n_list", ["4,,8", "4,8,"])
    def test_empty_n_list_element_exits_2(self, capsys, n_list):
        assert cli.main(["trend", "--paper", "--n-list", n_list, "--reps", "3", "--index", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--n-list must be comma-separated integers, got {n_list!r}" in captured.err

    def test_one_replicate_exits_2(self, capsys):
        # One replicate has no sample standard deviation to print.
        assert cli.main(["trend", "--paper", "--n-list", "5,8", "--reps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reps >= 2" in captured.err

    def test_seed_beyond_64_bits_exits_2(self, capsys):
        code = cli.main(["trend", "--paper", "--n-list", "5,9", "--reps", "3", "--seed", str(2**64)])
        captured = capsys.readouterr()
        assert code == 2
        assert "seed must fit in 64 bits" in captured.err
        assert captured.out == ""

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

    def test_env_decimals_at_the_bound_is_accepted(self):
        proc = run_cli(
            "expect", "--paper", "-N", "1", "--kind", "det", "--output", "csv",
            env_extra={"GRAMEXPECT_DECIMALS": "1000"},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "det,1,565/16,35.3125" + "0" * 996

    def test_env_seed_feeds_simulate(self):
        proc = run_cli(
            "simulate", "--paper", "-n", "3", "--reps", "2", "--max-index", "1",
            env_extra={"GRAMEXPECT_SEED": "123"},
        )
        assert json.loads(proc.stdout)["seed"] == 123
        assert manifest_of(proc)["seed"] == 123

    def test_invalid_env_integer_exits_2(self):
        proc = run_cli(
            "simulate", "--paper", "-n", "3", "--reps", "2", "--max-index", "1",
            env_extra={"GRAMEXPECT_THREADS": "abc"},
        )
        assert proc.returncode == 2
        assert "GRAMEXPECT_THREADS" in proc.stderr

    def test_command_without_the_flag_ignores_its_env(self):
        proc = run_cli("traces", "--paper", "-N", "1", env_extra={"GRAMEXPECT_THREADS": "abc"})
        assert proc.returncode == 0
        assert proc.stdout == '{"t":["565/16"]}\n'

    def test_command_refuses_a_flag_it_does_not_read(self):
        proc = run_cli("moments", "--paper", "--seed", "1")
        assert proc.returncode == 2
        assert "--seed" in proc.stderr


# 4400 places used to reach CPython's 4300-digit int-to-str limit, and 10^8 to run for
# minutes; the timeout makes a run that does not refuse them at once fail, not hang.
OVER_THE_DECIMALS_BOUND = pytest.mark.parametrize("decimals", ["4400", "100000000"], ids=["4400", "1e8"])


class TestDecimalsBound:
    @staticmethod
    def assert_refused(proc, decimals):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"gramexpect: decimals must be <= 1000, got {decimals}\n"

    @OVER_THE_DECIMALS_BOUND
    def test_expect_refuses_decimals_over_the_bound(self, decimals):
        proc = run_cli("expect", "--paper", "-N", "3", "--decimals", decimals, timeout=30)
        self.assert_refused(proc, decimals)

    @OVER_THE_DECIMALS_BOUND
    def test_simulate_refuses_decimals_over_the_bound(self, decimals):
        proc = run_cli(
            "simulate", "--paper", "-n", "3", "--reps", "2", "--max-index", "1", "--output", "table",
            "--decimals", decimals, timeout=30,
        )
        self.assert_refused(proc, decimals)

    @OVER_THE_DECIMALS_BOUND
    def test_env_decimals_over_the_bound_refused(self, decimals):
        proc = run_cli("expect", "--paper", "-N", "3", env_extra={"GRAMEXPECT_DECIMALS": decimals}, timeout=30)
        self.assert_refused(proc, decimals)


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


# Frozen stdout SHA-256 and exit code of every command in every output
# format, plus the edge cases of each layout: any change to these bytes is a
# change to the CLI's output. "@name" arguments are replaced by the path of
# GOLDEN_FILES[name].
GOLDEN_FILES = {
    "atoms": (
        '{"type":"atoms","t":2,"atoms":['
        '{"vector":["1/2","-1"],"prob":"1/3"},'
        '{"vector":["2","1/3"],"prob":"1/2"},'
        '{"vector":["0","3/2"],"prob":"1/6"}]}\n'
    ),
    "compound": (
        '{"type":"compound","t":3,"probs":["1/2","1/4","1/4"],'
        '"ell_law":[{"ell":1,"prob":"1/2"},{"ell":3,"prob":"1/2"}]}\n'
    ),
    "matrix": '{"rows":[["1","1/2","0"],["-1","2","1/3"],["2/3","0","-3"]]}\n',
    "empty": '{"rows":[]}\n',
}


def _golden_cases() -> dict[str, list[str]]:
    models = {"paper": ["--paper"], "atoms": ["--model", "@atoms"], "compound": ["--model", "@compound"]}
    commands = {
        "moments": ["moments"],
        "traces": ["traces", "-N", "5"],
        "expect": ["expect", "-N", "5"],
        "simulate": ["simulate", "-n", "6", "--reps", "4", "--max-index", "3", "--seed", "7"],
        "trend": ["trend", "--n-list", "4,7", "--reps", "3", "--index", "2", "--seed", "7"],
    }
    per_output = {
        f"{command}-{model}": argv + margv
        for command, argv in commands.items()
        for model, margv in models.items()
    }
    per_output.update(
        {
            f"oracle-{name}": ["oracle", name, "--matrix", "@matrix"]
            for name in ("det-expansion", "perm-expansion", "ryser", "bareiss", "charpoly", "permpoly", "gram")
        }
    )
    per_output.update(
        {
            "oracle-permpoly-max-index": ["oracle", "permpoly", "--matrix", "@matrix", "--max-index", "2"],
            "oracle-gram-empty": ["oracle", "gram", "--matrix", "@empty"],
            "oracle-brute-det": ["oracle", "brute-det", "--model", "@atoms", "-n", "3"],
            "oracle-brute-perm": ["oracle", "brute-perm", "--model", "@atoms", "-n", "3"],
            "expect-N0": ["expect", "--paper", "-N", "0"],
            "expect-decimals0": ["expect", "--paper", "-N", "4", "--decimals", "0"],
            "expect-perm-egf": ["expect", "--paper", "-N", "4", "--kind", "perm", "--path", "egf"],
            "simulate-max-index0": ["simulate", "--paper", "-n", "3", "--reps", "2", "--max-index", "0"],
            "simulate-both": ["simulate", "--paper", "-n", "5", "--reps", "3", "--max-index", "2",
                              "--kind", "both", "--seed", "1"],
            "simulate-perm": ["simulate", "--model", "@atoms", "-n", "5", "--reps", "3", "--max-index", "4",
                              "--kind", "perm", "--seed", "2", "--decimals", "5"],
            "trend-perm": ["trend", "--paper", "--kind", "perm", "--n-list", "5,8", "--reps", "3",
                           "--index", "3", "--seed", "4"],
            "guard-exit-3": ["simulate", "--paper", "-n", "60", "--reps", "5", "--max-index", "20",
                             "--kind", "perm", "--guard-ops", "1000"],
            "usage-exit-2": ["expect", "--paper", "-N", "-1"],
        }
    )
    return {
        f"{case}-{output}": [*argv, "--output", output]
        for case, argv in per_output.items()
        for output in cli.OUTPUT_CHOICES
    }


GOLDEN_CASES = _golden_cases()
GOLDEN = {
    "moments-paper-json": (0, "53501a424aec82678d4ca84017a1df98bf31256ab08904986add6ca30e148667"),
    "moments-paper-csv": (0, "dbafd10b05a473065fc37e67483b4aeaf198c5ece99b4d4ecd1a296f166ba68c"),
    "moments-paper-table": (0, "dc5de2d25ad2d43c7397a333c055957ea0153e620dcb4af7d1d1a85ac7471bda"),
    "moments-atoms-json": (0, "1459acbaac128be78c3d36e6763f8012f038ee5e1e355e0ebb784c75aca4e92b"),
    "moments-atoms-csv": (0, "878f80555ed07c4f4fdea01ba7ec954c33c2ee11351ecce6a255c9e66f332f2e"),
    "moments-atoms-table": (0, "8818ff1d30522cb88e4ae936d115932d9281386c04ecb67e88d4351e6f6818f5"),
    "moments-compound-json": (0, "21a14e352586cf12115c3c6266968467a85a6c58150a9c3fc2b193c91317447d"),
    "moments-compound-csv": (0, "dbbca4a81ff69af89a7416702e5a6b07deb1e117017df94b4220a49b7d7cadd7"),
    "moments-compound-table": (0, "bce948e866612dc1f762a534822c45245260af2008ac1ebd40bb629ec570a95e"),
    "traces-paper-json": (0, "2b48d660b7a886f9179fe88aaa1de73bb773d5f9dc0a988e61178a609da24192"),
    "traces-paper-csv": (0, "83366209dcd39879130eecea481599d9f0f9f0c9cef17967a3d6b29e85651bff"),
    "traces-paper-table": (0, "52221eafef9212cc542ebce88895a51facb0e8b68686cf3112d159cd194bbbb3"),
    "traces-atoms-json": (0, "bbd7cb9f35ad9102a52d5040a365cab60ee41e4f62e95b7cdafbac61eb096223"),
    "traces-atoms-csv": (0, "12f0415ba8eeeb9df5346be96d14911fdbc8ec719a9437cd7a179f9c248afd94"),
    "traces-atoms-table": (0, "1c29bad228fe4495a780df71a6ca4321d7837e106a1262ea0d905120d5b26921"),
    "traces-compound-json": (0, "dae9fb89a3af836af36e3f190db4c8a768ca35f6a76269347e832472d22a0819"),
    "traces-compound-csv": (0, "702556a9acc3993c02d243e1cfde381b427ac161bf90814f0f371b6303d66acc"),
    "traces-compound-table": (0, "3d1bedf8c7e2cc10db8f25240ef71b8679fe8bf4b0c36b97413b117eca4ffe2b"),
    "expect-paper-json": (0, "29f5dc7c6311c6c18603596fd29f0ce51f6ad9b1ee4019ef310187918fcd4505"),
    "expect-paper-csv": (0, "027396680fee5bfe8f2948082b22b54f6c62dc506df6cf64078591758a4d5418"),
    "expect-paper-table": (0, "c44eafdec285e987ade2149377b2c9b6e4bf43f789900956e9cec19d1c731de4"),
    "expect-atoms-json": (0, "4e13f7dc3651b4de6e4899dfd5d6984ca35e0f0b0c7ff6f51c803a3b0423f676"),
    "expect-atoms-csv": (0, "11dec2971e363fc1fe2de7a899abc9d9d625357692b98e8312256b2cddd9306a"),
    "expect-atoms-table": (0, "20830a2ef5fd7a82c44c2821bd01b63e32467d8a3edbd67708b1b75db986f7cf"),
    "expect-compound-json": (0, "fce8259df1cf5998c344846b4802964408a4fdb54df6a04c1bebacaad19e33f2"),
    "expect-compound-csv": (0, "e400d897214f55bfd58c21701ee6fa26a7c084628650836f8275ddd907ace7c8"),
    "expect-compound-table": (0, "146449727e997a8e96782ef6fdc218b3cf9b4a49e3ac50a042a33150aaf285d0"),
    "simulate-paper-json": (0, "d76a6832c530dd7a42e914afac7fdae62c6b811ff1ce559ec3fd5acd514dfa2b"),
    "simulate-paper-csv": (0, "75bd1060112afffc721f21c3567b54e72c7e523b434c95c59b8282be514feb7a"),
    "simulate-paper-table": (0, "52bef01c3632161a5c512fa9a79f162840536d372152ac6fe2917dce4004fa6b"),
    "simulate-atoms-json": (0, "d9bebd5647ffc6f3a58779c40e677545492c285815535daa0eb8fe2e48a3c9e8"),
    "simulate-atoms-csv": (0, "f008e64db034994617b3db59bd9def23bcbc2fea89622c7f450c14e5f98874bc"),
    "simulate-atoms-table": (0, "8b419e67ed2e6b406387e92e1d425f6850758ab83c9f1b05ea2f6520ca584787"),
    "simulate-compound-json": (0, "9a59a7bf9183b662ccd22246a573a41f4095928781fbdccfb8a48740ac7b88c6"),
    "simulate-compound-csv": (0, "383adbc93ccfbb894ab93ee878c2af5e868692d5dd022bd67497f93bbc082a8d"),
    "simulate-compound-table": (0, "f627f48210f03347953a7d24cde987238edc271b6bf750db2c69d7161a978eff"),
    "trend-paper-json": (0, "6990bb25762d43a8c44896420ea3386156096d0e49188598284608debf7838d0"),
    "trend-paper-csv": (0, "cce422ce0cc80bdd536c14767b5cec81e8665594a1ca4a520dd96fd173a355c3"),
    "trend-paper-table": (0, "1913fe90b6bf273b24128cf859f8d29c869d4b803f949b9e2cadf330cd3f1f06"),
    "trend-atoms-json": (0, "6047afe2ba22e2618f0ecac697b45ad567bf917f8a9986f2ef87730f0b767305"),
    "trend-atoms-csv": (0, "291d565f0debaca59a6da872fdf0faa069ebb2c8f182c9ae83a5d8c07b5b8802"),
    "trend-atoms-table": (0, "74dcb5eecc891a9ff9b7784f81da742e0eebce68d4a726466a14732d775706c8"),
    "trend-compound-json": (0, "aa71bc873b515f044485c798c1f559ecece421eccf07f6cc4fbcfcdb7c82ffdf"),
    "trend-compound-csv": (0, "c8a8e4a8e7a7bdcbba532cb98b99f47bb796ab90bf454ffb8a21fc197e66bee8"),
    "trend-compound-table": (0, "5c65f0d3e964e6e02cb8c3bd7923409bed4be1b4139054c36698f10a857ceece"),
    "oracle-det-expansion-json": (0, "52d84ba18707be08a626d86b978d7a41822dc0a2d57bef6bb6c1a5874d3839e6"),
    "oracle-det-expansion-csv": (0, "9cb840c6932bbe4f536d21da9209a7f8d9caf0b580d32cc284994326da0e5eec"),
    "oracle-det-expansion-table": (0, "8d88382247d38164f08e7dc44b37ba10abf55a9b4f560c178e252091104cf3ad"),
    "oracle-perm-expansion-json": (0, "429aefdcf815b68d8388a39665c9db98c10953000c21137c6083ba98152b3daf"),
    "oracle-perm-expansion-csv": (0, "5ce7753fb4d926f431af0b3ec26d4588100eddc185112549643a9a9d3342a2d0"),
    "oracle-perm-expansion-table": (0, "7f6d9f427d428ea7ced77a119d519e19c2ab4fa2913777c3ad764fb6cfea07bb"),
    "oracle-ryser-json": (0, "884d6307f7243615f7897342f0215c0e484f3c81f2a8fad843a6c452b3721fbb"),
    "oracle-ryser-csv": (0, "5ce7753fb4d926f431af0b3ec26d4588100eddc185112549643a9a9d3342a2d0"),
    "oracle-ryser-table": (0, "7f6d9f427d428ea7ced77a119d519e19c2ab4fa2913777c3ad764fb6cfea07bb"),
    "oracle-bareiss-json": (0, "05cc768a61de73f117467ec83919b3808120a07c76ee1dca20aecaa2a29cb161"),
    "oracle-bareiss-csv": (0, "9cb840c6932bbe4f536d21da9209a7f8d9caf0b580d32cc284994326da0e5eec"),
    "oracle-bareiss-table": (0, "8d88382247d38164f08e7dc44b37ba10abf55a9b4f560c178e252091104cf3ad"),
    "oracle-charpoly-json": (0, "b296349f99d7637f30d1ac1d559bf00c009f3b4ecbc1b89e44556badf00b8a2e"),
    "oracle-charpoly-csv": (0, "7811bc755e4c48cbe610983b299949bc5d989c8fd82e11795a51b3c7aae2e931"),
    "oracle-charpoly-table": (0, "7fbeefc7ec25bd958aaa812e2d6a3c3dd4eb62285e5e2f59dad26f4dd4fa041a"),
    "oracle-permpoly-json": (0, "d842638151185fb744adc2d31231e41b842a733b9bc3a2fedd9f1f73bdf35a20"),
    "oracle-permpoly-csv": (0, "86311e550231c95371c0f9ed7fbe0e2555aec8bc933512565eae8a0ec7ca5d48"),
    "oracle-permpoly-table": (0, "516e6cc6c5f2134842d86af6d95d46897e94806d18516e3f2eadc11c277797e2"),
    "oracle-gram-json": (0, "b3e046354c6556a87a84e6c63a8ad8163ec747c3d1aa906b4ca90d7b00834fe7"),
    "oracle-gram-csv": (0, "4c9ded6c8b15a3eef386594c24464a17e76bc90ec7238f7df6635fc322243152"),
    "oracle-gram-table": (0, "8406fdaeac6313543c7755b10fe237df4191a0f935416963151ff59b17874f5a"),
    "oracle-permpoly-max-index-json": (0, "7f404cc2cdb58ef14154c97adb8e07de5466d628e705bdf141f8dc06f736bac9"),
    "oracle-permpoly-max-index-csv": (0, "1879793cfac38cef48e045d8c4d34434718ff89c9ca7a5795dbaf4509c59ef4c"),
    "oracle-permpoly-max-index-table": (0, "a044dec74262a131a85671573ddac09ace9117b1898e2af783b9bf37e4da1a47"),
    "oracle-gram-empty-json": (0, "6c45288a5e9d1444ab024fac905b02495e73426d74e22544bbf867e5f4811680"),
    "oracle-gram-empty-csv": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "oracle-gram-empty-table": (0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    "oracle-brute-det-json": (0, "8353dea399dbe8e62ce6df5792f1a2fb6c545957b69df69b7fd07e6923774f98"),
    "oracle-brute-det-csv": (0, "173fdf4c210141974cabe2b42ed5c369673aad72d398414e82e591cb63c16b9c"),
    "oracle-brute-det-table": (0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    "oracle-brute-perm-json": (0, "2c337dacb8abdc7b518704cded2b3879e75bfce6c98346e7995502138f9c3963"),
    "oracle-brute-perm-csv": (0, "b6a4719a7bbb1ec30c9ef5388756c944dd1dc5f0605f1475c6979a2825706c80"),
    "oracle-brute-perm-table": (0, "041ccffe89b5f8634d0c4e81a37140e4dd3fb019d32223eba37635f909237bea"),
    "expect-N0-json": (0, "d37a97e3e704308d6e5f922dc7e3c463843f163ab7558f41fd2af604a23c71a3"),
    "expect-N0-csv": (0, "515425b5bd316594e6bb8156b2db5111843f2622660189f652ff09470f3cb542"),
    "expect-N0-table": (0, "2ead9090eaa4c1e60abda5b98447499e91ae0aed8ee26bce0526f5714fecc69c"),
    "expect-decimals0-json": (0, "7d9585ee680d33b5204bf220ce604ba59ed3d254881dd9569e5a7d04ddd5d104"),
    "expect-decimals0-csv": (0, "7516d17f59df2a04f28fa008f9c7321ad3e937a5ba12beb406c6c9a3f8239c97"),
    "expect-decimals0-table": (0, "fa6423e482e64845f59f8fdab3c75646dba8d173dfa7cfaceae120fd9ffede8f"),
    "expect-perm-egf-json": (0, "1f80c0bfff362cde6471197d6fa290621f8ff639120fa5f46fe82edeacac578a"),
    "expect-perm-egf-csv": (0, "9fbedde1144ab1e10f630d6628c82676203514efb4453733013e26874b25a0f6"),
    "expect-perm-egf-table": (0, "405812b044d430d430b95ab43bc276e257f0dc50025a160efeb278926f0318c6"),
    "simulate-max-index0-json": (0, "9fa17b3c5f4c78df9903ca8b94a9029ea7ded7df69743b97e4434b12651fff80"),
    "simulate-max-index0-csv": (0, "748dd262159e864b28055d5906a597387ff5b2d562e5da4f7281709c221596ca"),
    "simulate-max-index0-table": (0, "f4451d8980963b8a40d9762957a809d27b07e567fd151a81ff9ae1ebe2d7eee8"),
    "simulate-both-json": (0, "ab832fe3148de44b4ce5fe866f8cc958c482911ba9da76b0aa1da63d367bca21"),
    "simulate-both-csv": (0, "55a74ad504655f5ae50ba9a5f268d45d1bdd4d37b0b97abce5115cee4653dc3b"),
    "simulate-both-table": (0, "779d62396be489b2e34ce4a6a55efd8461f7a110c4933fe4b86546829b75ee6f"),
    "simulate-perm-json": (0, "8f6888ff8bbd5ad5e65cd9f24f95b0f0c23fc7a4f390e46cc80bf19e69e1ecd6"),
    "simulate-perm-csv": (0, "ee6cee28d78e489e578197b79969b54dd614026a103a43aaffbf07148c2d04c5"),
    "simulate-perm-table": (0, "8d184194ced9478960cc82dc232ae5b4ec510045fe3387fc7d715f4126fdeddd"),
    "trend-perm-json": (0, "710d352078b875cd13458e767464b6e3520ed1c410e5ccb047f65e624fa137e1"),
    "trend-perm-csv": (0, "7277e51cececcb9961c6511cb7ee640195538abcf2661d71cd2eaabc79976369"),
    "trend-perm-table": (0, "bec9a3f9204ddfd27d408db902b7edc4ff6436c840f68f13ef2e36965ab88cf8"),
    "guard-exit-3-json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "guard-exit-3-csv": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "guard-exit-3-table": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "usage-exit-2-json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "usage-exit-2-csv": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "usage-exit-2-table": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


# SHA-256 of each run's stderr manifest with its wall_time_s field removed,
# or "" when the run exits non-zero and writes no manifest.
MANIFEST_GOLDEN = {
    "expect-N0-csv": "23cc27d4f66a933b8e097b281503201665b19f86127fb6d31b1180aa41bc8e70",
    "expect-N0-json": "7c3e0e9064099065710785a11f9940f29ef34094d01b118e714da74e416fdecc",
    "expect-N0-table": "dd21b9673d2bafab8aa21a94147d3fe0e6bdbda8f8bdf1542b6fd09f5ed3959b",
    "expect-atoms-csv": "bea36c86b7d69a985dd554ce1abac0920d75a7a1d88cd62b056bae2f8d93da82",
    "expect-atoms-json": "fffb8accb080bf1f441c1776737b6ab533f45105191fe43c433018cd1fce7f8c",
    "expect-atoms-table": "be97f986eb4f1dd49c18d98c6eeca18ecf559b731816a82909447508b2a47d5f",
    "expect-compound-csv": "89d2eb71f4b13e2ddc4d7cdc52e24d4fc008b48e992bf8e58c9ec8f7a19a1566",
    "expect-compound-json": "f7f502df6fad698b818d26b9e3124957e051893916a91ddaa9a81aa0f30b5193",
    "expect-compound-table": "b176258b987bd85c1884d3961ba054b949d5d1ace1120e9f4e02250363061769",
    "expect-decimals0-csv": "08567e2aef59361d04aaebcb15a1c0586c79decc2445ba3dafc0be232f6f73fc",
    "expect-decimals0-json": "beada6fbe244a43a770576f23c8d25137d667681e7543566d211d4b8bbd120a0",
    "expect-decimals0-table": "924a5ef32a4a1ef038bbe31a5db54df4d26042f5fce008a370e7812620178b25",
    "expect-paper-csv": "5272c29e26aac2c9824dae497dc82f50ec5aa001cb5e965dcd1bd64e80a7527f",
    "expect-paper-json": "6622cad29a87ea2443f4b85b1096bbfbd4dcfe51985732b00a9d0ef20ff44cc4",
    "expect-paper-table": "cbb894320f4afe4b291fa844fed107fd723e6547d238c5429e4a76a160ec6c5a",
    "expect-perm-egf-csv": "b230c2773571f5713bd94a942197eb12155c21dcb8599af9ca70c40eaa05b07f",
    "expect-perm-egf-json": "7de3f15e0559dcfc7196007ef01dee76a8ef6418a4d9f638f932da807fc5be07",
    "expect-perm-egf-table": "5ee980f9e11db38b611bf3b5e3bda9762748381ecc954461ecc33fd18e84b50b",
    "guard-exit-3-csv": "",
    "guard-exit-3-json": "",
    "guard-exit-3-table": "",
    "moments-atoms-csv": "d71ffc3f7037e331d741028aa124de0da5a7cc00c9f0d2ec3f96e35d1db1c4b1",
    "moments-atoms-json": "16f067d07d917216879385bfd53c969b88d869b17083b3bc4bbf9e5cdcfc2cf7",
    "moments-atoms-table": "3e4da914f12467466a58478f9d4922d6cb76640e203de659aa5aad5cdb08c6a0",
    "moments-compound-csv": "9d364d4b3ff9a34de397fe29c99b33c738716fa41d21c724706fb82862a3c0b1",
    "moments-compound-json": "dcfd8df8a47227bb1de4562d012fb00201bae1b58aa1535660c72e7f7abb9ab8",
    "moments-compound-table": "686df6d1f1aa5890683352311044352c92be03331e7ce83c75c2d0f63f9928d4",
    "moments-paper-csv": "f509c31399d0a7d2298fe3d67df611bddd969313e6d84b263f5c5a4e22818123",
    "moments-paper-json": "f09ebd53dcebafd9fa43b55e36a0a098aa00bd9f23836525a0e75a9f3e36d5f3",
    "moments-paper-table": "1560b8dcec6642c10843d9d25ff0de7d4def12725b9a15565431c2cc00107e44",
    "oracle-bareiss-csv": "7727d94196532ff7d1b0d811a71762f75979489034627fb4beb3ca2260f46ceb",
    "oracle-bareiss-json": "d81be0c3c4bfe97503892bfd3bb0e141ca36a0914f1b73ac9468e9889b406331",
    "oracle-bareiss-table": "3c280624da1e967bb6b5feaa48c187d1c2c698e9962879fd3a2d6de71488a471",
    "oracle-brute-det-csv": "e8944a1155e5ea40665378fd1bf221c81420b09ec2264062fec3ec730da9100e",
    "oracle-brute-det-json": "8658ab1615ade938d43e8c736a21ab623b32103826a4837e2ec22f06517fb065",
    "oracle-brute-det-table": "7be1e19583fb8b723670e3dde76bc842fbf2779dcc7bf32a9f7c819bf3fed82a",
    "oracle-brute-perm-csv": "8540c8d559f0bacb00bfae38102373cf1bc89ed0e6fa2387dca1b061e1189ff3",
    "oracle-brute-perm-json": "12fe6ed836deb9f2d2ae40826698f4ab297c701bc0f4a502e2cc007e79b1d034",
    "oracle-brute-perm-table": "9198510eb52ef455a8d34c70cd4b57af63c680f2ef56d12f22a5bade8562aa1d",
    "oracle-charpoly-csv": "968de1023705e0f146f99e449d073a0cedfa47ebbbd2651e281f0768d1b3a835",
    "oracle-charpoly-json": "7034d57382b80cb31e12106b4cb3443a50dad4cdec23a2bb319f0d8d8e561a5d",
    "oracle-charpoly-table": "c291391d676f5e1ae0888a6e03e33e93db97f4444fde2523ad049051ae210285",
    "oracle-det-expansion-csv": "b6d0b3a774865a0b62d6f5497447a224e62c72444b31d82105cf7e8f840864ca",
    "oracle-det-expansion-json": "60de27573858abbc9c17f185b64d1fa57dd76780bc76fa22f6ae859defe8b001",
    "oracle-det-expansion-table": "85c2ca3e541b5988c9b56b1a9123d1bf2f5190ecfecda9d79cd605faab0507a7",
    "oracle-gram-csv": "435e024802eef2bc55080557fe71801d7dd4c277afb9cfb4edc230f05050e9ae",
    "oracle-gram-empty-csv": "c5846ae2929ce29952f361dcb266f71017f6c7a138149411bd0d5c7b1582b9eb",
    "oracle-gram-empty-json": "b26bb696595c8fb75e9628bbe80c971d4e8c2122c3a900a65117af6df98b9cba",
    "oracle-gram-empty-table": "ae909f2d5039d94f213d40599500651531c3395eca7fedd957f98cc9066c405a",
    "oracle-gram-json": "d61ff4829c3af7f99a9ff5424b1a4f469a7f606dbc2d301b635524f0ec2e8bc7",
    "oracle-gram-table": "1fd97cc803eaf1921112c30ac140b6d36d858402278d5a02fcc318844bee3b13",
    "oracle-perm-expansion-csv": "813aae220aa17ce04226764ccdfa1c6c5996b5e9deb876ea6ca2187b66bb6089",
    "oracle-perm-expansion-json": "1ea0421899d890c6b443d93d6a664fccc0545a7d7459002b03bc0ffa4e15b816",
    "oracle-perm-expansion-table": "16acc88695e0fa58882f305a2526c82d83768f58138bea411cec8b0d0086fa9d",
    "oracle-permpoly-csv": "22ba818b57251c42a935014607f4861e898aa95efc6bd538c27009c5684be96b",
    "oracle-permpoly-json": "d82b5746c847ba584cd67d6dcea30b4bd721a19633a7140280c1f6401263bb91",
    "oracle-permpoly-max-index-csv": "77c0c5a9d794df82d30cc183424fdc4162faeb43800d038dc4e0a1eeac1bbc93",
    "oracle-permpoly-max-index-json": "7c27e252872048958e0024cf488d4feb9fb28a093a123184e8e25fed723b3a66",
    "oracle-permpoly-max-index-table": "a8fd0dc03ffb68d6d9bccef41d01ed049c1ac883ee35a24a6b78fa6d3cd1b13a",
    "oracle-permpoly-table": "fc314719facf7d30d2eafcbc21127d092f2bbc22776059d040d7c8f17893659e",
    "oracle-ryser-csv": "821df77c928efbd83470e388d4a77d5bc3493767217a43760c4f027b731f84d0",
    "oracle-ryser-json": "f8bd71a92dba21bc887e83036dacc6dc64b5d493fc17422344f50ea34173c00d",
    "oracle-ryser-table": "f17ed094cb24e7f5ee148d010466ea1dca443e180762aa85b6ef70660dac49d9",
    "simulate-atoms-csv": "21a436aea307b01b692e6c9212f6de27469c0bc57bb2919bd4220b19435a85ad",
    "simulate-atoms-json": "42d6f4746e345d176f2f4eee1e94fe7728073945e5b7ec43eeb098d7b66c39e1",
    "simulate-atoms-table": "5a141ce4b476d9c4129d698cd49aade5d2e0d35a7e76d69bbd4e079d9e6afbc9",
    "simulate-both-csv": "1992f90ed049ad40ccd433cab16511c7e6119ee59e6bac460e039f4673bc01e8",
    "simulate-both-json": "bcd1e095448f6d5fcb67b0bac97bed2338dded96b1140b4a14e49317685f24d5",
    "simulate-both-table": "2043b28a07af35445dc2fd7658ca28b55fc9ee26fda59f64d3b264b609f87c06",
    "simulate-compound-csv": "edcf6df3b5f20065d70acaf1cceed9c840c64252bc0753442d20ecb2584614d3",
    "simulate-compound-json": "f6d7e6376d95334ae7e71952b8ff0a866d0529e6d17347975692bf1e512854f6",
    "simulate-compound-table": "6e381bd7b5b395d4e3fcb7a66faa9d814da8bfd8ee3da1de956970fcc3dcf3e1",
    "simulate-max-index0-csv": "68e676480a5b01830da1cfa483a6643d6b1dd35144a1bf0e384c608fd4526ad2",
    "simulate-max-index0-json": "cb67cb4652a4bcc4103d585d54cb8f896d40e825615fe88ae7ca5e7554af4a4e",
    "simulate-max-index0-table": "c724b949d40ba8b1f6d8dc304f3d8588b411abac749e6f37a2ef08b2c4d09412",
    "simulate-paper-csv": "2da4f55c4a139fa537608e38bb147758325cec0b5711a420bc1c3a0f0b8df116",
    "simulate-paper-json": "0f6a1c802865d90542c803f414283c2c2e2afb59afebe5bb33db50a2ce344f42",
    "simulate-paper-table": "ef80d4d97708dc937f82a24546e209edba008413f6cbb582b72ceb7704416716",
    "simulate-perm-csv": "03401e101530f9608a4e5356fd3ba3ede00fa80edbbeba02e52f98d0d9323ca9",
    "simulate-perm-json": "2fda966cbb215436fcfbce2e4b5b6941e706cacd4a1a8f0ed96c6e805da13ee1",
    "simulate-perm-table": "e7414c6d5b021999e01fc607f6c77f8da6b7171e5cfd7ea490ebb6314b24eafc",
    "traces-atoms-csv": "6c527fd682bc0815e8f37e6f4127dc05e1a01ee63de3131e177418f9320aa443",
    "traces-atoms-json": "b32701d73c1c05977c338ab6ca424b2b29e6988833b5d6386e51b13682a799df",
    "traces-atoms-table": "3639bc08d4fb0b3656dbfa252954ee226960184f6fd6a06a08a8c53c877e4704",
    "traces-compound-csv": "8de0d3b72f865a6d339649ea1543767553c4cfdc9dcfc9146ef23aed942ce5bd",
    "traces-compound-json": "ac2ad17fb2dea7727112b29981477eb41a31d8f2ad8c34b5ee865e2721158d73",
    "traces-compound-table": "0d9901ae884b86e1e6a33c16d0c151e1daed0d79f0741ee1ff06d8a8185b9e5b",
    "traces-paper-csv": "ddb6f72b60cd22e0c5f5dd18e9d093bea326ab8bb05db9850b74d15449dd53f2",
    "traces-paper-json": "db4e1cee7c360194358b8fbe03122d6df6dead9d5a6e755f76eab789595b07d7",
    "traces-paper-table": "8fe2a56328bd8d4757f35f552671d653736f8df4e45e62be5c898a7986bcb5d4",
    "trend-atoms-csv": "29a041f1a2d879d9248223d4531b242e701c8613577010acc86972eabba4c9f6",
    "trend-atoms-json": "5bc48c5add60944b880357fdddf5de4326936b3a0f5b0583fdb0b69d29d774f5",
    "trend-atoms-table": "4b55f5628316214927eacaeab23d7e9098ea0239cadf17cf35ce009320b658c2",
    "trend-compound-csv": "47d32d541180aa8ecd631677fdf5b367ddcaf5f800b3fe166d974b4afffd8d99",
    "trend-compound-json": "84a39b5fa0583c03f71232a29b04fb4398fd343dffba9434fd685e0d071cfa9d",
    "trend-compound-table": "0a678582521a0a29384015ad743ec5b949cbe37fc432ff01e8a9f9be971929f7",
    "trend-paper-csv": "052acb173d65e9ae95cfa19e85814ab0bece69f2a366a2e72bfa61271ec3d8e3",
    "trend-paper-json": "4bbf819248f72577a18da663d6b34ea3000e3cd72a5851686607d0048c8c6db5",
    "trend-paper-table": "1d2205e9b502511d32cad8023d87a63b10455a70848fd0d8dfe3fed485095673",
    "trend-perm-csv": "2f0c648d7a629fa9c31f977753902bcd7971e9745cc18b39ac623ca222eb005e",
    "trend-perm-json": "9f7fa52309b328baa6f82608b969207ef7639149bf81451c87f0629f2fd07391",
    "trend-perm-table": "8af267d7ca07761a37b2961dc85df502e440436cfb2cb1c154acf4e2fbc4076e",
    "usage-exit-2-csv": "",
    "usage-exit-2-json": "",
    "usage-exit-2-table": "",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_stdout_and_exit_code_frozen(self, case, files, capsys):
        argv = [files.get(arg, arg) for arg in GOLDEN_CASES[case]]
        code = cli.main(argv)
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert (code, digest) == GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_manifest_frozen(self, case, files, capsys):
        argv = [files.get(arg, arg) for arg in GOLDEN_CASES[case]]
        code = cli.main(argv)
        manifest = re.sub(r',"wall_time_s":[^,}]*', "", capsys.readouterr().err.splitlines()[-1])
        digest = hashlib.sha256(manifest.encode("utf-8")).hexdigest() if code == 0 else ""
        assert digest == MANIFEST_GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(case for case, (code, _) in GOLDEN.items() if code == 0))
    def test_replays_from_its_manifest(self, case, files, capsys, tmp_path):
        cli.main([files.get(arg, arg) for arg in GOLDEN_CASES[case]])
        manifest = json.loads(capsys.readouterr().err.splitlines()[-1])
        config = manifest["config"]
        argv = [manifest["subcommand"], *([config.pop("oracle")] if "oracle" in config else [])]
        for key, value in config.items():
            if value == "builtin:paper":
                argv.append("--paper")
                continue
            if isinstance(value, dict):
                path = tmp_path / f"replay-{key}.json"
                path.write_text(json.dumps(value))
                value = str(path)
            elif isinstance(value, list):
                value = ",".join(map(str, value))
            argv += [{"n": "-n", "terms": "-N"}.get(key, "--" + key.replace("_", "-")), str(value)]
        if manifest["seed"] is not None:
            argv += ["--seed", str(manifest["seed"])]
        assert cli.main(argv) == 0
        replayed = capsys.readouterr().out
        assert hashlib.sha256(replayed.encode("utf-8")).hexdigest() == manifest["output_sha256"]
