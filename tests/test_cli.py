import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

import gramexpect.cli as cli
import gramexpect.montecarlo as montecarlo
import gramexpect.oracles as oracles
from gramexpect import __version__, moment_matrix, paper_model, retry_seed
from gramexpect.matrices import matrix_to_json
from gramexpect.scalars import JSON_MAX_DEPTH, canonical_json
from gramexpect.traces import TraceSequence

import replay_golden
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
    return replay_golden.write_files(GOLDEN_FILES, tmp_path)


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

    def test_char_path_computes_no_power_traces(self, monkeypatch, capsys):
        def no_traces(*args):
            raise AssertionError("the char route read the power traces")

        monkeypatch.setattr(cli, "traces_by_power", no_traces)
        assert cli.main(["expect", "--paper", "-N", "8", "--path", "char"]) == 0
        assert capsys.readouterr().out == (
            "n  det       det ~    perm                               perm ~\n"
            "0  1         1.00     1                                  1.00\n"
            "1  565/16    35.31    565/16                             35.31\n"
            "2  6775/16   423.44   265025/128                         2070.51\n"
            "3  42375/16  2648.44  362772375/2048                     177134.95\n"
            "4  28125/4   7031.25  164880286875/8192                  20126988.14\n"
            "5  0         0.00     374500254796875/131072             2857210195.90\n"
            "6  0         0.00     510339663861328125/1048576         486697830067.95\n"
            "7  0         0.00     1622706705114099609375/16777216    96720856732970.45\n"
            "8  0         0.00     737093046936266138671875/33554432  21967084614523236.12\n"
        )


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
    @staticmethod
    def off_at_2(real):
        """``real`` with its sequence's value at index 2 raised by one."""

        def corrupted(traces, count):
            seq = real(traces, count)
            return replace(seq, values=(*seq.values[:2], seq.values[2] + 1, *seq.values[3:]))

        return corrupted

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["simulate", "--paper", "-n", "6", "--reps", "3", "--max-index", "3", "--seed", "1"], "det"),
            (["trend", "--paper", "--kind", "perm", "--n-list", "5,8", "--reps", "3", "--index", "2"], "perm"),
        ],
        ids=["simulate-det", "trend-perm"],
    )
    def test_corrupted_recursion_exits_1(self, monkeypatch, capsys, argv, kind):
        # The z-scores' exact values are checked against the char route before they are reported.
        name = f"expected_{kind}_recursion"
        monkeypatch.setattr(montecarlo, name, self.off_at_2(getattr(montecarlo, name)))
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"gramexpect: verification mismatch: {kind} expectation paths disagree: recursion vs char first differ at i = 2 ("
        )

    def test_corrupted_d_1_exits_1(self, monkeypatch, capsys):
        # b_1 and d_1 are both tr G D^2, so --kind both compares them in every replicate.
        real = montecarlo._perm_coefficient_values

        def d_1_off(rows, max_index):
            d_1, *rest = real(rows, max_index)
            return (d_1 + 1, *rest)

        monkeypatch.setattr(montecarlo, "_perm_coefficient_values", d_1_off)
        argv = ["simulate", "--paper", "-n", "6", "--reps", "3", "--max-index", "3", "--kind", "both", "--seed", "1"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "gramexpect: verification mismatch: tr G paths disagree: b_1 vs d_1 first differ at replicate = 0 (228 vs 229)\n"
        )

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

    def test_index_above_the_smallest_n_names_the_index(self, capsys):
        assert cli.main(["trend", "--paper", "--n-list", "2,3", "--reps", "2", "--index", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gramexpect: coefficient index must be <= the smallest n, got 3 with n = 2\n"

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

    def test_moments_and_traces_built_once_for_every_point(self, monkeypatch, capsys):
        import gramexpect.models as models

        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(models, "leverrier_char_coeffs")
        counted(montecarlo, "traces_by_power")
        argv = ["trend", "--paper", "--n-list", "4,5,6,7,8,9", "--reps", "3", "--index", "2"]
        assert cli.main(argv) == 0
        assert calls == {"leverrier_char_coeffs": 1, "traces_by_power": 1}
        assert capsys.readouterr().out == (
            '{"i":2,"kind":"det","points":[{"n":4,"stddev":365.69349390094635},{"n":5,"stddev":166.31789841545418},'
            '{"n":6,"stddev":74.308934710287545},{"n":7,"stddev":213.20423921453255},'
            '{"n":8,"stddev":104.61981909570981},{"n":9,"stddev":139.74956381477458}],"reps":3,"seed":0}\n'
        )

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


class TestPastTheIntDigitLimit:
    """Exact values past CPython's 4300-digit int-to-str limit print in full; parsing keeps the limit."""

    def test_traces_print_every_row_whatever_the_limit(self):
        proc = run_cli("traces", "--paper", "-N", "1700", "--output", "csv", timeout=60)
        lines = proc.stdout.splitlines()
        assert (proc.returncode, len(lines), lines[-1][:5]) == (0, 1701, "1700,")
        assert max(map(len, lines)) > 4300
        low = run_cli(
            "traces", "--paper", "-N", "1700", "--output", "csv", env_extra={"PYTHONINTMAXSTRDIGITS": "640"}, timeout=60
        )
        assert (low.returncode, low.stdout) == (0, proc.stdout)

    def test_long_traces_render_without_touching_the_limit(self, digit_limit_untouchable, capsys):
        assert cli.main(["traces", "--paper", "-N", "1700", "--output", "csv"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == "806b551956104ec6f4a520edba789cafabed143ba1b8114792f2a4da46de85a0"

    def test_char_route_permanents_print_every_row(self):
        proc = run_cli("expect", "--paper", "-N", "900", "--path", "char", "--kind", "perm", "--output", "csv", timeout=60)
        lines = proc.stdout.splitlines()
        assert (proc.returncode, len(lines), lines[-1][:9]) == (0, 902, "perm,900,")

    def test_model_file_numerator_past_the_limit_exits_2(self, tmp_path):
        # 10^5000 / (2 10^5000) is 1/2: only the parsing limit refuses it.
        half = "1" + "0" * 5000 + "/2" + "0" * 5000
        path = tmp_path / "long.json"
        path.write_text(f'{{"type":"multinomial","t":2,"ell":2,"probs":["{half}","1/2"]}}')
        proc = run_cli("expect", "--model", str(path), "-N", "1", env_extra={"PYTHONINTMAXSTRDIGITS": "4300"})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("gramexpect: invalid model: ")


def _nested(depth: int, leaf: str) -> str:
    return "[" * depth + leaf + "]" * depth


class TestJsonNestingBound:
    """Model and matrix files nested past JSON_MAX_DEPTH are refused before parsing."""

    @pytest.mark.parametrize(
        "depth, message",
        [
            (JSON_MAX_DEPTH, "gramexpect: invalid model: probs must be a rational string or an integer, got ["),
            (JSON_MAX_DEPTH + 1, "gramexpect: invalid model: model file nests JSON too deeply to parse\n"),
        ],
        ids=["at-the-bound", "one-past"],
    )
    def test_model_file(self, tmp_path, capsys, depth, message):
        path = tmp_path / "nested.json"
        # The object is the first level, so the list nests depth - 1 levels.
        path.write_text('{"type":"multinomial","t":2,"ell":2,"probs":' + _nested(depth - 1, '"1/2"') + "}")
        assert cli.main(["expect", "--model", str(path), "-N", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    @pytest.mark.parametrize(
        "depth, message",
        [
            (JSON_MAX_DEPTH, "gramexpect: matrix entries must be a rational string or an integer, got ["),
            (JSON_MAX_DEPTH + 1, "gramexpect: matrix file nests JSON too deeply to parse\n"),
        ],
        ids=["at-the-bound", "one-past"],
    )
    def test_matrix_file(self, tmp_path, capsys, depth, message):
        path = tmp_path / "nested.json"
        # The object, the row list and the row take three levels; the entry nests the rest.
        path.write_text('{"rows": [' + _nested(depth - 2, "1") + "]}")
        assert cli.main(["oracle", "ryser", "--matrix", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)


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


# Frozen stdout SHA-256, exit code and manifest digest of every command in
# every output format, plus the edge cases of each layout, kept as data in
# golden.json, which tests/replay_golden.py replays without pytest: any change
# to these bytes is a change to the CLI's output. "@name" arguments are
# replaced by the path of GOLDEN_FILES[name].
GOLDEN_FILES, GOLDEN_CASES = replay_golden.load()


class TestGoldenOutput:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_stdout_and_exit_code_frozen(self, case, files):
        code, out, _ = replay_golden.run(GOLDEN_CASES[case]["argv"], files)
        assert (code, replay_golden.sha256(out)) == (GOLDEN_CASES[case]["exit"], GOLDEN_CASES[case]["stdout_sha256"])

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_manifest_frozen(self, case, files):
        code, _, err = replay_golden.run(GOLDEN_CASES[case]["argv"], files)
        assert replay_golden.manifest_digest(code, err) == GOLDEN_CASES[case]["manifest_sha256"]

    @pytest.mark.parametrize("case", sorted(case for case, golden in GOLDEN_CASES.items() if golden["exit"] == 0))
    def test_replays_from_its_manifest(self, case, files, capsys, tmp_path):
        manifest = json.loads(replay_golden.run(GOLDEN_CASES[case]["argv"], files)[2].splitlines()[-1])
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


@pytest.fixture
def digit_limit_untouchable(monkeypatch):
    """``sys.set_int_max_str_digits`` raises: rendering must not change the interpreter's limit."""

    def refuse(limit):
        raise AssertionError(f"the int-to-str digit limit was set to {limit}")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)


class TestGoldenReplay:
    """tests/replay_golden.py replays golden.json without pytest."""

    def test_every_case_matches_without_touching_the_digit_limit(self, digit_limit_untouchable, capsys):
        assert replay_golden.main([]) == 0
        assert capsys.readouterr().out == f"{len(GOLDEN_CASES)} of {len(GOLDEN_CASES)} golden cases match\n"

    def test_an_edited_digest_exits_non_zero(self, tmp_path):
        case = GOLDEN_CASES["expect-paper-csv"]
        path = tmp_path / "golden.json"

        def replay(case):
            path.write_text(json.dumps({"files": GOLDEN_FILES, "cases": {"expect-paper-csv": case}}))
            return subprocess.run([sys.executable, replay_golden.__file__, str(path)], capture_output=True, text=True)

        proc = replay(case)
        assert (proc.returncode, proc.stdout) == (0, "1 of 1 golden cases match\n")
        proc = replay({**case, "stdout_sha256": "0" * 64})
        assert proc.returncode == 1
        assert proc.stdout.startswith("MISMATCH expect-paper-csv: ")
        assert proc.stdout.endswith("0 of 1 golden cases match\n")
