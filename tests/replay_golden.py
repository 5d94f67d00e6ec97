"""Replay the frozen CLI cases of ``golden.json`` in-process and compare what they print.

``golden.json`` holds the texts of the input files the cases read
("files") and, for each case, its argv, exit code, stdout SHA-256 and the
SHA-256 of its stderr manifest with the wall_time_s field removed ("" when
the case exits non-zero). An "@name" argument stands for the path of file
"name". Each case runs through ``gramexpect.cli.main`` with no GRAMEXPECT_
variable set. Standard library only, so any interpreter can run it:

    PYTHONPATH=src python tests/replay_golden.py [path/to/golden.json]

Exits 0 when every case matches and 1 otherwise, naming each mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from gramexpect import cli

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load(path: str | Path = GOLDEN_PATH) -> tuple[dict[str, str], dict[str, dict]]:
    """The file texts by name and the cases by name."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return data["files"], data["cases"]


def write_files(files: dict[str, str], directory: str | Path) -> dict[str, str]:
    """Each file text written into ``directory``; returns "@name" -> its path."""
    paths = {}
    for name, text in files.items():
        path = Path(directory) / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[f"@{name}"] = str(path)
    return paths


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def manifest_digest(code: int, stderr: str) -> str:
    """SHA-256 of the manifest line without wall_time_s, or "" when the run failed."""
    if code != 0:
        return ""
    return sha256(re.sub(r',"wall_time_s":[^,}]*', "", stderr.splitlines()[-1]))


def run(argv: list[str], paths: dict[str, str]) -> tuple[int, str, str]:
    """``cli.main`` on ``argv`` with "@name" arguments replaced: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([paths.get(arg, arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    files, cases = load(*args[:1])
    mismatches = []
    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(os.environ):
        for name in [k for k in os.environ if k.startswith("GRAMEXPECT_")]:
            del os.environ[name]
        paths = write_files(files, directory)
        for name, case in sorted(cases.items()):
            code, out, err = run(case["argv"], paths)
            got = (code, sha256(out), manifest_digest(code, err))
            expected = (case["exit"], case["stdout_sha256"], case["manifest_sha256"])
            if got != expected:
                mismatches.append(name)
                print(f"MISMATCH {name}: exit, stdout, manifest {got} != {expected}")
    print(f"{len(cases) - len(mismatches)} of {len(cases)} golden cases match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
