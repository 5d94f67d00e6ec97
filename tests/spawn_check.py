"""Runs simulate and trend at --threads 2 and 1 with child processes started by spawn.

spawn is the default start method on macOS and Windows: each child imports
gramexpect afresh and receives its share of the replicates, and the model
with its scaled atoms, by pickle. The script exits 0 and names the package
it ran when both thread counts print the same stdout. Run it as
``python tests/spawn_check.py`` with gramexpect importable.
"""

import contextlib
import io
import multiprocessing
import os
import tempfile

import gramexpect
import gramexpect.cli as cli


def stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue()


# Signed rational atoms: their rows are D = 6 times the columns.
ATOMS = (
    '{"type": "atoms", "atoms": [{"vector": ["1", "-1/2", "0"], "prob": "1/4"}, '
    '{"vector": ["2/3", "0", "-1"], "prob": "1/4"}, {"vector": ["-2", "1/3", "5/2"], "prob": "1/2"}]}'
)

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    with tempfile.TemporaryDirectory() as tmp:
        atoms = os.path.join(tmp, "atoms.json")
        with open(atoms, "w", encoding="utf-8") as f:
            f.write(ATOMS)
        for argv in (
            ("simulate", "--paper", "-n", "12", "--reps", "4", "--kind", "both", "--output", "json"),
            ("simulate", "--model", atoms, "-n", "12", "--reps", "4", "--kind", "both", "--output", "json"),
            ("trend", "--paper", "--n-list", "4,6,8", "--reps", "3", "--index", "1", "--kind", "perm"),
        ):
            assert stdout(*argv, "--threads", "2") == stdout(*argv, "--threads", "1"), argv
    print(f"spawned children give the same stdout: {gramexpect.__file__}")
