"""Mutation harness for the expectation routes and the code they share.

Each mutant changes one operator or one int constant inside one target
function, in a temporary copy of the package; the working tree is never
written. The mutant then runs the CLI's own cross-checks:

* ``expect --kind both --path all -N 12`` on the paper model and on a
  signed-atoms model, where every route must equal the recursion;
* ``traces -N 12`` on the paper model, where the power traces must equal
  Newton's identities on the characteristic coefficients.

A mutant is killed by a route mismatch (exit 1, naming the pair that
disagreed), else by a crash (any other exit code or an exception), else by
a digest change (stdout differs from the unmutated copy's); otherwise it
survived. Survivors listed in ``EXPLAINED`` carry a one-line reason: an
equivalent mutant, or a guard that these checks never reach and a named
tier-1 test kills. Any other survivor is unexplained and makes the run
exit 1.

Operators: + <-> -, * -> +, // -> *, < <-> <=, > <-> >=, == <-> !=, and an
int constant plus one.

    python tests/mutate_routes.py                 # this checkout's src/
    python tests/mutate_routes.py --src OTHER/src # another tree's package

Standard library only; one child interpreter runs at a time.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

TARGETS = (
    ("sequences.py", "_expectation_recursion"),
    ("sequences.py", "_egf_values"),
    ("sequences.py", "_unscaled"),
    ("sequences.py", "_alternating_char_series"),
    ("sequences.py", "expected_perm_from_char"),
    ("sequences.py", "det_sequence_from_char"),
    ("series.py", "TruncatedSeries.exp"),
    ("series.py", "TruncatedSeries.inverse"),
    ("traces.py", "traces_by_power"),
)

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
}

# Mutant id -> why it survives. An id is "target Lline:col change", line relative to the def.
# A guard survivor changes an argument check these commands never reach; the named test kills it.
N0 = "guard: refuses count = 0; killed by TestGoldenOutput's expect-N0 cases"
RANDOM = "guard: refuses count = 0; killed by TestNormalizedRecursion's random traces"
CHAR = "guard: refuses count = 0; killed by TestScaledVariable's char property"
OVERWRITTEN = "equivalent: every entry of out is assigned before it is read"
EXPLAINED = {
    "sequences._expectation_recursion L1:7 < -> <=": RANDOM,
    "sequences._expectation_recursion L1:15 0 -> 1": RANDOM,
    "sequences._egf_values L10:7 < -> <=": CHAR,
    "sequences._egf_values L10:15 0 -> 1": CHAR,
    "sequences.expected_perm_from_char L7:7 < -> <=": CHAR,
    "sequences.expected_perm_from_char L7:15 0 -> 1": CHAR,
    "sequences.det_sequence_from_char L2:7 < -> <=": N0,
    "sequences.det_sequence_from_char L2:15 0 -> 1": N0,
    "series.TruncatedSeries.exp L15:24 0 -> 1": OVERWRITTEN,
    "series.TruncatedSeries.inverse L2:23 0 -> 1": "guard: reads c_1 for c_0, nonzero in both models; killed by "
    "TestScaledVariable's char property",
    "series.TruncatedSeries.inverse L6:24 0 -> 1": OVERWRITTEN,
    "traces.traces_by_power L2:7 < -> <=": N0,
    "traces.traces_by_power L2:15 0 -> 1": N0,
}

SIGNED_ATOMS = {
    "type": "atoms",
    "atoms": [
        {"vector": ["1/2", "-1/3", "1"], "prob": "1/3"},
        {"vector": ["-1", "0", "5/6"], "prob": "1/2"},
        {"vector": ["0", "-2/3", "1/2"], "prob": "1/6"},
    ],
}

# Runs every check in one child interpreter and prints one JSON line:
# per check [exit code or exception name, stdout SHA-256, last stderr line].
CHILD = """
import contextlib, hashlib, io, json, sys
import gramexpect.cli as cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        code = type(exc).__name__
    lines = err.getvalue().strip().splitlines()
    results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest(), lines[-1] if lines else ""])
print(json.dumps(results))
"""


def checks(model_file: Path) -> list[list[str]]:
    expect = ["expect", "-N", "12", "--kind", "both", "--path", "all", "--output", "json"]
    return [[*expect, "--paper"], [*expect, "--model", str(model_file)], ["traces", "--paper", "-N", "12"]]


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef | None:
    scope: list[ast.stmt] = tree.body
    node = None
    for part in qualname.split("."):
        node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part), None)
        if node is None:
            return None
        scope = node.body
    return node


def sites(func: ast.FunctionDef) -> list[tuple[ast.AST, int | None, str, str]]:
    """(node, index into Compare.ops or None, old, new) for every mutable spot, in ast.walk order."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, None, SYMBOLS[type(node.op)], SYMBOLS[SWAPS[type(node.op)]]))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, i, SYMBOLS[type(op)], SYMBOLS[SWAPS[type(op)]]))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, None, str(node.value), str(node.value + 1)))
    return found


def apply(node: ast.AST, index: int | None) -> None:
    if isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.Compare):
        node.ops[index] = SWAPS[type(node.ops[index])]()
    else:
        node.op = SWAPS[type(node.op)]()


def mutants(source: str, module: str, qualname: str):
    """Yield (id, mutated module source) for each site of one target."""
    func = find_function(ast.parse(source), qualname)
    for k, (node, index, old, new) in enumerate(sites(func)):
        tree = ast.parse(source)
        site = sites(find_function(tree, qualname))[k]
        apply(site[0], site[1])
        line, col = node.lineno - func.lineno, node.col_offset
        yield f"{module[:-3]}.{qualname} L{line}:{col} {old} -> {new}", ast.unparse(tree)


def run_checks(root: Path, argvs: list[list[str]], timeout: float) -> list[list]:
    cmd = [sys.executable, "-B", "-c", CHILD, json.dumps(argvs)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env={"PYTHONPATH": str(root)})
    except subprocess.TimeoutExpired:
        return [["timeout", "", ""]] * len(argvs)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["?"])[-1]
        return [[f"child exit {proc.returncode}: {last}", "", ""]] * len(argvs)
    return json.loads(proc.stdout)


def verdict(results: list[list], baseline: list[list]) -> str:
    mismatches = []
    for code, _, last in results:
        pair = re.search(r"verification mismatch: (\w+) paths disagree: (\w+ vs \w+)", last)
        if code == 1 and pair:
            mismatches.append(f"{pair.group(1)} {pair.group(2)}")
    if mismatches:
        return "mismatch: " + ", ".join(dict.fromkeys(mismatches))
    crashes = [str(code) for code, _, _ in results if code != 0]
    if crashes:
        return "crash: " + ", ".join(dict.fromkeys(crashes))
    if [digest for _, digest, _ in results] != [digest for _, digest, _ in baseline]:
        return "digest"
    return "survived"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per mutant")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutate-routes-") as tmp:
        root = Path(tmp) / "src"
        shutil.copytree(args.src / "gramexpect", root / "gramexpect", ignore=shutil.ignore_patterns("__pycache__"))
        model_file = Path(tmp) / "signed-atoms.json"
        model_file.write_text(json.dumps(SIGNED_ATOMS))
        argvs = checks(model_file)
        baseline = run_checks(root, argvs, args.timeout)
        if any(code != 0 for code, _, _ in baseline):
            print(f"the unmutated copy fails its checks: {baseline}", file=sys.stderr)
            return 2
        sources = {module: (root / "gramexpect" / module).read_text() for module, _ in TARGETS}
        # ast.unparse drops comments and layout; the unmutated round trip must not change a digest.
        for module, source in sources.items():
            (root / "gramexpect" / module).write_text(ast.unparse(ast.parse(source)))
        if verdict(run_checks(root, argvs, args.timeout), baseline) != "survived":
            print("the unparsed copy differs from the original", file=sys.stderr)
            return 2
        table: dict[str, Counter | None] = {}
        unexplained = []
        for module, qualname in TARGETS:
            path, source = root / "gramexpect" / module, sources[module]
            target = f"{module[:-3]}.{qualname}"
            if find_function(ast.parse(source), qualname) is None:
                table[target] = None
                continue
            counts = table[target] = Counter()
            for mutant_id, mutated in mutants(source, module, qualname):
                path.write_text(mutated)
                outcome = verdict(run_checks(root, argvs, args.timeout), baseline)
                counts[outcome.split(":")[0]] += 1
                reason = EXPLAINED.get(mutant_id)
                if outcome == "survived" and reason is None:
                    unexplained.append(mutant_id)
                print(f"{mutant_id}: {outcome}" + (f" ({reason})" if outcome == "survived" and reason else ""))
            path.write_text(ast.unparse(ast.parse(source)))
    columns = ("mismatch", "crash", "digest", "survived")
    print("\n| target | mutants | " + " | ".join(columns) + " |")
    print("|---|---|" + "---|" * len(columns))
    for target, counts in table.items():
        cells = [str(sum(counts.values()))] + [str(counts[c]) for c in columns] if counts is not None else ["absent"]
        print(f"| {target} | " + " | ".join(cells) + " |")
    if unexplained:
        print(f"\n{len(unexplained)} unexplained survivor(s):", *unexplained, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
