"""Command line entry point.

Subcommands: moments, traces, expect, oracle, simulate, trend. Output goes
to stdout in json, csv, or table form; a one-line run manifest (resolved
config, version, seed, wall time, output digest) goes to stderr on success,
so any exact output can be reproduced from the manifest alone.

Exit codes: 0 success, 1 cross-path verification mismatch, 2 usage or
parse error, 3 resource guard exceeded.

Flags can be defaulted through environment variables with the GRAMEXPECT_
prefix: GRAMEXPECT_OUTPUT, GRAMEXPECT_DECIMALS, GRAMEXPECT_SEED,
GRAMEXPECT_THREADS, GRAMEXPECT_GUARD_OPS. An explicit flag always wins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable

from . import __version__
from .matrices import ExactMatrix, matrix_from_json_str
from .models import (
    InvalidModelError,
    Model,
    model_from_json_str,
    model_to_dict,
    moment_matrix,
    paper_model,
)
from .montecarlo import (
    SimulationConfig,
    check_sampling_draws,
    simulate,
    stddev_trend,
)
from .oracles import (
    GuardExceeded,
    OP_BUDGET,
    brute_force_expectation,
    char_poly_coeffs_of_gram,
    det_bareiss,
    det_expansion,
    gram,
    perm_expansion,
    perm_ryser,
    permanental_poly_coeffs,
)
from .scalars import canonical_json, decimal_string, format_float, format_rational
from .sequences import (
    char_coeffs,
    det_sequence_from_char,
    egf_expand_det,
    egf_expand_perm,
    expected_det_recursion,
    expected_perm_from_char,
    expected_perm_recursion,
)
from .traces import traces_by_power, traces_from_char_coeffs

ENV_PREFIX = "GRAMEXPECT_"
OUTPUT_CHOICES = ("json", "csv", "table")


class UsageError(Exception):
    """Bad arguments or unreadable/malformed input files (exit 2)."""


class VerificationMismatch(Exception):
    """Two computation paths disagreed (exit 1)."""


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run, emitted to stderr as one line."""

    subcommand: str
    config: dict
    version: str
    seed: int | None
    wall_time_s: float
    output_sha256: str

    def to_json(self) -> str:
        return canonical_json(asdict(self))


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _resolve_int(flag_value: int | None, env_name: str, fallback: int, minimum: int, what: str) -> int:
    if flag_value is not None:
        value = flag_value
    else:
        raw = _env(env_name)
        if raw is None:
            value = fallback
        else:
            try:
                value = int(raw)
            except ValueError:
                raise UsageError(f"{ENV_PREFIX}{env_name} must be an integer, got {raw!r}")
    if value < minimum:
        raise UsageError(f"{what} must be >= {minimum}, got {value}")
    return value


def _resolve_common(args: argparse.Namespace, default_output: str) -> None:
    output = args.output or _env("OUTPUT") or default_output
    if output not in OUTPUT_CHOICES:
        raise UsageError(f"output must be one of {', '.join(OUTPUT_CHOICES)}, got {output!r}")
    args.output = output
    args.decimals = _resolve_int(args.decimals, "DECIMALS", 2, 0, "decimals")
    args.seed = _resolve_int(args.seed, "SEED", 0, 0, "seed")
    args.threads = _resolve_int(args.threads, "THREADS", 1, 1, "threads")
    args.guard_ops = _resolve_int(args.guard_ops, "GUARD_OPS", OP_BUDGET, 1, "guard-ops")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load_model(args: argparse.Namespace) -> tuple[Model, dict | str]:
    if args.paper and args.model:
        raise UsageError("--paper and --model are mutually exclusive")
    if args.paper:
        return paper_model(), "builtin:paper"
    if args.model:
        model = model_from_json_str(_read_file(args.model))
        return model, model_to_dict(model)
    raise UsageError("a model is required: pass --model FILE or --paper")


def _load_matrix(args: argparse.Namespace) -> ExactMatrix:
    if not args.matrix:
        raise UsageError("this oracle requires --matrix FILE")
    text = _read_file(args.matrix)
    try:
        return matrix_from_json_str(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"matrix file is not valid JSON: {exc}")
    except ValueError as exc:
        raise UsageError(str(exc))


def _render(output: str, body: object, headers: list[str] | None, rows: Iterable[list[str]]) -> str:
    """The stdout payload of every command.

    json is ``body`` alone. csv is the optional header line, then one
    comma-joined line per row; table is the same lines with each column
    left-aligned to its widest cell, right-stripped. ``rows`` is only
    iterated for csv and table, so callers pass a generator.
    """
    if output == "json":
        return canonical_json(body) + "\n"
    lines = ([] if headers is None else [headers]) + list(rows)
    if output == "csv":
        return "".join(",".join(line) + "\n" for line in lines)
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(map(str.ljust, line, widths)).rstrip() + "\n" for line in lines)


def _matrix_body(matrix: ExactMatrix) -> dict:
    """A matrix in the matrix-file form {"rows": [[rational strings]]}."""
    return {"rows": [[format_rational(v) for v in row] for row in matrix.entries]}


def _render_matrix(output: str, matrix: ExactMatrix) -> str:
    """The matrix body; its csv has no header line."""
    body = _matrix_body(matrix)
    headers = None if output == "csv" else [f"col{j}" for j in range(matrix.cols)]
    return _render(output, body, headers, body["rows"])


# ---------------------------------------------------------------- moments


def cmd_moments(args: argparse.Namespace) -> tuple[str, dict]:
    model, model_desc = _load_model(args)
    payload = _render_matrix(args.output, moment_matrix(model).as_exact_matrix())
    return payload, {"model": model_desc, "output": args.output}


# ----------------------------------------------------------------- traces


def cmd_traces(args: argparse.Namespace) -> tuple[str, dict]:
    model, model_desc = _load_model(args)
    if args.terms < 1:
        raise UsageError("--terms must be >= 1")
    matrix = moment_matrix(model)
    traces = traces_by_power(matrix, args.terms)
    # Silent cross-check through Newton's identities; a disagreement here
    # means a real bug, and exit code 1 reports it as such.
    recovered = traces_from_char_coeffs(char_coeffs(matrix), args.terms)
    if traces.values != recovered.values:
        raise VerificationMismatch(
            "trace mismatch between the power route and Newton's identities"
        )
    strings = [format_rational(v) for v in traces.values]
    rows = ([str(i), s] for i, s in enumerate(strings, start=1))
    payload = _render(args.output, {"t": strings}, ["n", "trace"], rows)
    return payload, {"model": model_desc, "terms": args.terms, "output": args.output}


# ----------------------------------------------------------------- expect


def _expect_sequences(model: Model, terms: int, kind: str, path: str) -> dict[str, tuple]:
    matrix = moment_matrix(model)
    traces = traces_by_power(matrix, terms)
    coeffs = char_coeffs(matrix)
    out: dict[str, tuple] = {}
    kinds = ("det", "perm") if kind == "both" else (kind,)
    for k in kinds:
        if k == "det":
            routes = {
                "recursion": lambda: expected_det_recursion(traces, terms),
                "char": lambda: det_sequence_from_char(coeffs, terms),
                "egf": lambda: egf_expand_det(traces, terms),
            }
        else:
            routes = {
                "recursion": lambda: expected_perm_recursion(traces, terms),
                "char": lambda: expected_perm_from_char(coeffs, terms),
                "egf": lambda: egf_expand_perm(traces, terms),
            }
        if path == "all":
            computed = {name: fn().values for name, fn in routes.items()}
            reference = computed["recursion"]
            for name, values in computed.items():
                if values != reference:
                    first_bad = next(
                        n for n, (a, b) in enumerate(zip(reference, values)) if a != b
                    )
                    raise VerificationMismatch(
                        f"{k} paths disagree: recursion vs {name} first differ at "
                        f"n = {first_bad} ({format_rational(reference[first_bad])} vs "
                        f"{format_rational(values[first_bad])})"
                    )
            out[k] = reference
        else:
            out[k] = routes[path]().values
    return out


def cmd_expect(args: argparse.Namespace) -> tuple[str, dict]:
    model, model_desc = _load_model(args)
    if args.terms < 0:
        raise UsageError("--terms must be >= 0")
    values = _expect_sequences(model, args.terms, args.kind, args.path)
    config = {
        "model": model_desc,
        "terms": args.terms,
        "kind": args.kind,
        "path": args.path,
        "decimals": args.decimals,
        "output": args.output,
    }
    cells = {
        k: [(format_rational(v), decimal_string(v, args.decimals)) for v in seq]
        for k, seq in values.items()
    }
    body = {
        "kind": args.kind,
        "path": args.path,
        "terms": args.terms,
        "values": {
            k: [{"n": n, "exact": exact, "decimal": dec} for n, (exact, dec) in enumerate(pairs)]
            for k, pairs in cells.items()
        },
    }
    if args.output == "csv":
        # Long form: one line per (kind, n).
        headers = ["kind", "n", "exact", "decimal"]
        rows = ([k, str(n), *pair] for k, pairs in cells.items() for n, pair in enumerate(pairs))
    else:
        # Wide form: one line per n, an exact and a decimal column per kind.
        headers = ["n", *(h for k in cells for h in (k, f"{k} ~"))]
        rows = (
            [str(n), *(cell for pairs in cells.values() for cell in pairs[n])]
            for n in range(args.terms + 1)
        )
    return _render(args.output, body, headers, rows), config


# ----------------------------------------------------------------- oracle

ORACLE_NAMES = (
    "det-expansion",
    "perm-expansion",
    "ryser",
    "bareiss",
    "charpoly",
    "permpoly",
    "gram",
    "brute-det",
    "brute-perm",
)


def _scalar_payload(args: argparse.Namespace, name: str, value: Fraction) -> str:
    """One value; its table is the bare value, without the csv header."""
    cell = format_rational(value)
    headers = ["result"] if args.output == "csv" else None
    return _render(args.output, {"oracle": name, "result": cell}, headers, [[cell]])


def _coeff_payload(args: argparse.Namespace, name: str, coeffs: tuple[Fraction, ...]) -> str:
    cells = [format_rational(c) for c in coeffs]
    rows = ([str(i), c] for i, c in enumerate(cells))
    return _render(args.output, {"oracle": name, "coeffs": cells}, ["i", "coeff"], rows)


def cmd_oracle(args: argparse.Namespace) -> tuple[str, dict]:
    name = args.oracle
    config: dict = {"oracle": name, "output": args.output}
    if name in ("brute-det", "brute-perm"):
        model, model_desc = _load_model(args)
        if not hasattr(model, "atoms"):
            raise UsageError("brute-force oracles need an atoms model")
        if args.n is None:
            raise UsageError("brute-force oracles need -n")
        kind = "det" if name == "brute-det" else "perm"
        value = brute_force_expectation(model, args.n, kind)
        config.update({"model": model_desc, "n": args.n})
        return _scalar_payload(args, name, value), config
    matrix = _load_matrix(args)
    config["matrix"] = _matrix_body(matrix)
    if name == "gram":
        return _render_matrix(args.output, gram(matrix)), config
    if name == "charpoly":
        return _coeff_payload(args, name, char_poly_coeffs_of_gram(matrix)), config
    if name == "permpoly":
        max_index = args.max_index if args.max_index is not None else matrix.rows
        config["max_index"] = max_index
        coeffs = permanental_poly_coeffs(matrix, max_index, op_budget=args.guard_ops)
        return _coeff_payload(args, name, coeffs), config
    scalar = {
        "det-expansion": det_expansion,
        "perm-expansion": perm_expansion,
        "ryser": perm_ryser,
        "bareiss": det_bareiss,
    }[name]
    return _scalar_payload(args, name, scalar(matrix)), config


# --------------------------------------------------------------- simulate


def _float_or_dash(value: float | None) -> str:
    return "-" if value is None else format_float(value)


def cmd_simulate(args: argparse.Namespace) -> tuple[str, dict]:
    model, model_desc = _load_model(args)
    try:
        config = SimulationConfig(
            model=model,
            n=args.n,
            reps=args.reps,
            max_index=args.max_index,
            kind=args.kind,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    check_sampling_draws(model, args.n, args.guard_ops)
    report = simulate(config, threads=args.threads, op_budget=args.guard_ops)
    manifest_config = {
        "model": model_desc,
        "n": args.n,
        "reps": args.reps,
        "max_index": args.max_index,
        "kind": args.kind,
        "threads": args.threads,
        "guard_ops": args.guard_ops,
        "output": args.output,
    }
    kinds = ("det", "perm") if report.kind == "both" else (report.kind,)
    stats = {kind: report.stats_for(kind) for kind in kinds}
    body = {key: getattr(report, key) for key in ("n", "reps", "seed", "max_index", "kind", "mode")}
    body["stats"] = {
        kind: [
            {
                "i": s.index,
                "normalized_mean": s.normalized_mean,
                "normalized_stddev": s.normalized_stddev,
                "exact": s.exact_value,
                "z_score": s.z_score,
            }
            for s in source
        ]
        for kind, source in stats.items()
    }
    if args.output == "csv":
        # Per-replicate normalized coefficients for external boxplot tooling,
        # with a leading kind column when both kinds are sampled.
        tag = len(kinds) > 1
        headers = ["kind"] * tag + ["replicate", "i", "value"]
        rows = (
            [kind] * tag + [str(r), str(i), format_float(float(value))]
            for kind in kinds
            for r, row in enumerate(report.replicates_for(kind))
            for i, value in enumerate(row, start=1)
        )
    else:
        headers = ["kind", "i", "mean", "stddev", "exact", "z"]
        rows = (
            [
                kind,
                str(s.index),
                format_float(s.normalized_mean),
                _float_or_dash(s.normalized_stddev),
                decimal_string(s.exact_value, args.decimals),
                _float_or_dash(s.z_score),
            ]
            for kind, source in stats.items()
            for s in source
        )
    return _render(args.output, body, headers, rows), manifest_config


# ------------------------------------------------------------------ trend


def cmd_trend(args: argparse.Namespace) -> tuple[str, dict]:
    model, model_desc = _load_model(args)
    try:
        n_list = [int(part) for part in args.n_list.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    check_sampling_draws(model, max(n_list, default=0), args.guard_ops)
    try:
        points = stddev_trend(
            model,
            n_list,
            args.reps,
            args.index,
            args.kind,
            args.seed,
            threads=args.threads,
            op_budget=args.guard_ops,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    config = {
        "model": model_desc,
        "n_list": n_list,
        "reps": args.reps,
        "index": args.index,
        "kind": args.kind,
        "threads": args.threads,
        "guard_ops": args.guard_ops,
        "output": args.output,
    }
    body = {
        "kind": args.kind,
        "i": args.index,
        "reps": args.reps,
        "seed": args.seed,
        "points": [{"n": n, "stddev": s} for n, s in points],
    }
    rows = ([str(n), format_float(s)] for n, s in points)
    return _render(args.output, body, ["n", "stddev"], rows), config


# ------------------------------------------------------------------- main


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", metavar="FILE", help="model JSON file")
    sub.add_argument("--paper", action="store_true", help="use the built-in worked-example model")
    sub.add_argument("--output", choices=OUTPUT_CHOICES, default=None)
    sub.add_argument("--decimals", type=int, default=None, metavar="K")
    sub.add_argument("--seed", type=int, default=None, metavar="S")
    sub.add_argument("--threads", type=int, default=None, metavar="W")
    sub.add_argument(
        "--guard-ops", type=int, default=None, metavar="B", dest="guard_ops",
        help="op budget checked before any work: the draws of one replicate and the "
        "permanental Wick expansion in simulate/trend, Ryser in oracle permpoly (default 10^7)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramexpect",
        description="Exact expected determinants and permanents of random Gram matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("moments", help="print the second-moment matrix M")
    _add_common_flags(sub)
    sub.set_defaults(handler=cmd_moments, default_output="table")

    sub = subs.add_parser("traces", help="print traces of powers of M")
    _add_common_flags(sub)
    sub.add_argument("-N", "--terms", type=int, default=7, metavar="N")
    sub.set_defaults(handler=cmd_traces, default_output="json")

    sub = subs.add_parser("expect", help="expected determinants and permanents")
    _add_common_flags(sub)
    sub.add_argument("-N", "--terms", type=int, default=6, metavar="N")
    sub.add_argument("--kind", choices=("det", "perm", "both"), default="both")
    sub.add_argument("--path", choices=("recursion", "char", "egf", "all"), default="all")
    sub.set_defaults(handler=cmd_expect, default_output="table")

    sub = subs.add_parser("oracle", help="run a brute-force reference computation")
    _add_common_flags(sub)
    sub.add_argument("oracle", choices=ORACLE_NAMES)
    sub.add_argument("--matrix", metavar="FILE", help="matrix JSON file")
    sub.add_argument("-n", type=int, default=None, help="columns for brute-force oracles")
    sub.add_argument("--max-index", type=int, default=None, dest="max_index")
    sub.set_defaults(handler=cmd_oracle, default_output="table")

    sub = subs.add_parser("simulate", help="sample Gram matrices and report coefficient statistics")
    _add_common_flags(sub)
    sub.add_argument("-n", "--columns", type=int, required=True, dest="n")
    sub.add_argument("--reps", type=int, default=100)
    sub.add_argument("--max-index", type=int, default=4, dest="max_index")
    sub.add_argument("--kind", choices=("det", "perm", "both"), default="det")
    sub.set_defaults(handler=cmd_simulate, default_output="json")

    sub = subs.add_parser("trend", help="normalized stddev of one coefficient across n")
    _add_common_flags(sub)
    sub.add_argument("--n-list", default="50,100,200,400", dest="n_list")
    sub.add_argument("--reps", type=int, default=200)
    sub.add_argument("--index", type=int, default=2)
    sub.add_argument("--kind", choices=("det", "perm"), default="det")
    sub.set_defaults(handler=cmd_trend, default_output="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        _resolve_common(args, args.default_output)
        payload, config = args.handler(args)
    except UsageError as exc:
        print(f"gramexpect: {exc}", file=sys.stderr)
        return 2
    except InvalidModelError as exc:
        print(f"gramexpect: invalid model: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"gramexpect: {exc}", file=sys.stderr)
        return 3
    except VerificationMismatch as exc:
        print(f"gramexpect: verification mismatch: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"gramexpect: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(payload)
    manifest = RunManifest(
        subcommand=args.subcommand,
        config=config,
        version=__version__,
        seed=args.seed if args.subcommand in ("simulate", "trend") else None,
        wall_time_s=round(time.perf_counter() - start, 6),
        output_sha256=hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    )
    print(manifest.to_json(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
