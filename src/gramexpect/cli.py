"""Command line entry point.

Subcommands: moments, traces, expect, oracle, simulate, trend. Output goes
to stdout in json, csv, or table form; a one-line run manifest (resolved
config, version, seed, wall time, output digest) goes to stderr on success,
so any exact output can be reproduced from the manifest alone.

Exit codes: 0 success, 1 cross-path verification mismatch, 2 usage or
parse error, 3 resource guard exceeded.

Flags can be defaulted through environment variables with the GRAMEXPECT_
prefix: GRAMEXPECT_OUTPUT for every command, and GRAMEXPECT_DECIMALS,
GRAMEXPECT_SEED, GRAMEXPECT_THREADS, GRAMEXPECT_GUARD_OPS for the commands
(and oracles, per ``ORACLES``) that take that flag (``INT_FLAGS``); others
never read them. An explicit flag always wins.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from functools import partial
from typing import Iterable

from . import __version__
from .matrices import ExactMatrix, matrix_from_json_str, matrix_to_json
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
    VerificationMismatch,
    agreed,
    brute_force_expectation,
    char_poly_coeffs_of_gram,
    det_bareiss,
    det_expansion,
    guarded_gram,
    perm_expansion,
    perm_ryser,
    permanental_poly_coeffs,
)
from .scalars import canonical_json, decimal_string, format_float, format_rational
from .sequences import (
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
GUARD_OPS_HELP = (
    "op budget checked before any work: the draws of one replicate and the "
    "permanental Wick expansion in simulate/trend, Ryser in oracle permpoly (default 10^7)"
)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


# The integer flags a command may take, each defaulted by GRAMEXPECT_<DEST>:
# metavar, fallback, minimum and maximum (None for none). The decimals maximum
# keeps renderings cheap and under CPython's 4300-digit int-to-str limit.
INT_FLAGS = {
    "decimals": ("K", 2, 0, 1000),
    "seed": ("S", 0, 0, None),
    "threads": ("W", 1, 1, None),
    "guard_ops": ("B", OP_BUDGET, 1, None),
}


def _resolve_int(args: argparse.Namespace, dest: str) -> int:
    _, fallback, minimum, maximum = INT_FLAGS[dest]
    value = getattr(args, dest)
    if value is None:
        raw = _env(dest.upper())
        if raw is None:
            value = fallback
        else:
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"{ENV_PREFIX}{dest.upper()} must be an integer, got {raw!r}")
    if value < minimum:
        raise ValueError(f"{dest.replace('_', '-')} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{dest.replace('_', '-')} must be <= {maximum}, got {value}")
    return value


def _resolve_common(args: argparse.Namespace, default_output: str) -> None:
    """Settle the output and the integer flags this command takes, flag before environment."""
    output = args.output or _env("OUTPUT") or default_output
    if output not in OUTPUT_CHOICES:
        raise ValueError(f"output must be one of {', '.join(OUTPUT_CHOICES)}, got {output!r}")
    args.output = output
    for dest in INT_FLAGS:
        if hasattr(args, dest):
            setattr(args, dest, _resolve_int(args, dest))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")


def _load_model(args: argparse.Namespace) -> Model:
    """The model of --paper or --model; ``args.model`` becomes "builtin:paper" or the model as a dict."""
    if args.paper and args.model:
        raise ValueError("--paper and --model are mutually exclusive")
    if args.paper:
        model, args.model = paper_model(), "builtin:paper"
    elif args.model:
        model = model_from_json_str(_read_file(args.model))
        args.model = model_to_dict(model)
    else:
        raise ValueError("a model is required: pass --model FILE or --paper")
    del args.paper
    return model


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


def _render_matrix(output: str, matrix: ExactMatrix) -> str:
    """The matrix body; its csv has no header line."""
    body = matrix_to_json(matrix)
    headers = None if output == "csv" else [f"col{j}" for j in range(matrix.cols)]
    return _render(output, body, headers, body["rows"])


# ---------------------------------------------------------------- moments


def cmd_moments(args: argparse.Namespace) -> str:
    return _render_matrix(args.output, moment_matrix(_load_model(args)))


# ----------------------------------------------------------------- traces


def cmd_traces(args: argparse.Namespace) -> str:
    model = _load_model(args)
    if args.terms < 1:
        raise ValueError("--terms must be >= 1")
    matrix = moment_matrix(model)
    # Silent cross-check through Newton's identities: a disagreement is a real bug, reported by exit code 1.
    traces = agreed("trace", 1, {
        "power": traces_by_power(matrix, args.terms).values,
        "newton": traces_from_char_coeffs(matrix.char_coeffs, args.terms).values,
    })
    strings = [format_rational(v) for v in traces]
    rows = ([str(i), s] for i, s in enumerate(strings, start=1))
    return _render(args.output, {"t": strings}, ["n", "trace"], rows)


# ----------------------------------------------------------------- expect


def _expect_sequences(model: Model, terms: int, kind: str, path: str) -> dict[str, tuple]:
    """Each kind's a_n or p_n by the routes ``path`` selects; under "all" every route must equal the recursion."""
    matrix = moment_matrix(model)
    coeffs = matrix.char_coeffs
    # Only the recursion and egf routes read the power traces.
    traces = None if path == "char" else traces_by_power(matrix, terms)
    # Thunks look their functions up here when they run, so bench/run.py's hooks see the calls.
    routes = {
        "det": {
            "recursion": lambda: expected_det_recursion(traces, terms),
            "char": lambda: det_sequence_from_char(coeffs, terms),
            "egf": lambda: egf_expand_det(traces, terms),
        },
        "perm": {
            "recursion": lambda: expected_perm_recursion(traces, terms),
            "char": lambda: expected_perm_from_char(coeffs, terms),
            "egf": lambda: egf_expand_perm(traces, terms),
        },
    }
    return {
        k: agreed(k, 0, {name: run().values for name, run in routes[k].items() if path in (name, "all")})
        for k in (("det", "perm") if kind == "both" else (kind,))
    }


def cmd_expect(args: argparse.Namespace) -> str:
    model = _load_model(args)
    if args.terms < 0:
        raise ValueError("--terms must be >= 0")
    values = _expect_sequences(model, args.terms, args.kind, args.path)
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
    return _render(args.output, body, headers, rows)


# ----------------------------------------------------------------- oracle

# Each oracle: the flags it reads besides --output, and what it computes from
# the --matrix matrix or the model, given its integer flags as keywords.
ORACLES = {
    "det-expansion": (("--matrix",), det_expansion),
    "perm-expansion": (("--matrix",), perm_expansion),
    "ryser": (("--matrix",), perm_ryser),
    "bareiss": (("--matrix",), det_bareiss),
    "charpoly": (("--matrix",), char_poly_coeffs_of_gram),
    "permpoly": (
        ("--matrix", "--max-index", "--guard-ops"),
        lambda matrix, max_index, guard_ops: permanental_poly_coeffs(matrix, max_index, op_budget=guard_ops),
    ),
    "gram": (("--matrix",), guarded_gram),
    "brute-det": (("--model", "--paper", "-n"), partial(brute_force_expectation, kind="det")),
    "brute-perm": (("--model", "--paper", "-n"), partial(brute_force_expectation, kind="perm")),
}
ORACLE_FLAGS = tuple(dict.fromkeys(flag for reads, _ in ORACLES.values() for flag in reads))


def _select_oracle_inputs(args: argparse.Namespace) -> None:
    """Refuse the flags the named oracle does not read, and drop them from ``args``.

    Run before the environment is read, so GRAMEXPECT_GUARD_OPS reaches only
    the oracles that read --guard-ops.
    """
    reads = ORACLES[args.oracle][0]
    for flag in ORACLE_FLAGS:
        dest = flag.lstrip("-").replace("-", "_")
        value = getattr(args, dest)
        if flag in reads:
            if value is None and flag in ("--matrix", "-n"):
                raise ValueError(f"oracle {args.oracle} requires {flag}")
        elif value is None or value is False:  # not given; -n 0 is given
            delattr(args, dest)
        else:
            raise ValueError(f"oracle {args.oracle} does not read {flag}")


def _oracle_payload(output: str, name: str, result: object) -> str:
    """A matrix like ``moments``, coefficients as (i, coeff) rows, a scalar bare (its csv under ``result``)."""
    if isinstance(result, ExactMatrix):
        return _render_matrix(output, result)
    if isinstance(result, tuple):
        cells = [format_rational(c) for c in result]
        rows = ([str(i), c] for i, c in enumerate(cells))
        return _render(output, {"oracle": name, "coeffs": cells}, ["i", "coeff"], rows)
    cell = format_rational(result)
    return _render(output, {"oracle": name, "result": cell}, ["result"] if output == "csv" else None, [[cell]])


def cmd_oracle(args: argparse.Namespace) -> str:
    if hasattr(args, "matrix"):
        source = matrix_from_json_str(_read_file(args.matrix))
        args.matrix = matrix_to_json(source)
    else:
        source = _load_model(args)
        if not hasattr(source, "atoms"):
            raise ValueError("brute-force oracles need an atoms model")
    if "max_index" in vars(args) and args.max_index is None:
        args.max_index = source.rows
    ints = {dest: value for dest, value in vars(args).items() if dest in ("n", "max_index", "guard_ops")}
    vars(args).pop("guard_ops", None)  # a bound on the work, not an input of the result
    return _oracle_payload(args.output, args.oracle, ORACLES[args.oracle][1](source, **ints))


# --------------------------------------------------------------- simulate


def _float_or_dash(value: float | None) -> str:
    return "-" if value is None else format_float(value)


def cmd_simulate(args: argparse.Namespace) -> str:
    model = _load_model(args)
    config = SimulationConfig(
        model=model,
        n=args.n,
        reps=args.reps,
        max_index=args.max_index,
        kind=args.kind,
        seed=args.seed,
    )
    check_sampling_draws(model, args.n, args.guard_ops)
    report = simulate(config, threads=args.threads, op_budget=args.guard_ops)
    stats = report.stats
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
        tag = len(stats) > 1
        headers = ["kind"] * tag + ["replicate", "i", "value"]
        rows = (
            [kind] * tag + [str(r), str(i), format_float(float(value))]
            for kind in stats
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
    return _render(args.output, body, headers, rows)


# ------------------------------------------------------------------ trend


def cmd_trend(args: argparse.Namespace) -> str:
    model = _load_model(args)
    try:
        args.n_list = [int(part) for part in args.n_list.split(",")]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    check_sampling_draws(model, max(args.n_list), args.guard_ops)
    points = stddev_trend(
        model,
        args.n_list,
        args.reps,
        args.index,
        args.kind,
        args.seed,
        threads=args.threads,
        op_budget=args.guard_ops,
    )
    body = {
        "kind": args.kind,
        "i": args.index,
        "reps": args.reps,
        "seed": args.seed,
        "points": [{"n": n, "stddev": s} for n, s in points],
    }
    rows = ([str(n), format_float(s)] for n, s in points)
    return _render(args.output, body, ["n", "stddev"], rows)


# ------------------------------------------------------------------- main


def _add_common_flags(sub: argparse.ArgumentParser, *int_flags: str) -> None:
    """The model and output flags every command takes, then the named ``INT_FLAGS``."""
    sub.add_argument("--model", metavar="FILE", help="model JSON file")
    sub.add_argument("--paper", action="store_true", help="use the built-in worked-example model")
    sub.add_argument("--output", choices=OUTPUT_CHOICES, default=None)
    for dest in int_flags:
        sub.add_argument(
            "--" + dest.replace("_", "-"), type=int, default=None, metavar=INT_FLAGS[dest][0], dest=dest,
            help=GUARD_OPS_HELP if dest == "guard_ops" else None,
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
    _add_common_flags(sub, "decimals")
    sub.add_argument("-N", "--terms", type=int, default=6, metavar="N")
    sub.add_argument("--kind", choices=("det", "perm", "both"), default="both")
    sub.add_argument("--path", choices=("recursion", "char", "egf", "all"), default="all")
    sub.set_defaults(handler=cmd_expect, default_output="table")

    sub = subs.add_parser("oracle", help="run a brute-force reference computation")
    _add_common_flags(sub, "guard_ops")
    sub.add_argument("oracle", choices=ORACLES)
    sub.add_argument("--matrix", metavar="FILE", help="matrix JSON file")
    sub.add_argument("-n", type=int, default=None, help="columns for brute-force oracles")
    sub.add_argument("--max-index", type=int, default=None, dest="max_index")
    sub.set_defaults(handler=cmd_oracle, default_output="table")

    sub = subs.add_parser("simulate", help="sample Gram matrices and report coefficient statistics")
    _add_common_flags(sub, *INT_FLAGS)
    sub.add_argument("-n", "--columns", type=int, required=True, dest="n")
    sub.add_argument("--reps", type=int, default=100)
    sub.add_argument("--max-index", type=int, default=4, dest="max_index")
    sub.add_argument("--kind", choices=("det", "perm", "both"), default="det")
    sub.set_defaults(handler=cmd_simulate, default_output="json")

    sub = subs.add_parser("trend", help="normalized stddev of one coefficient across n")
    _add_common_flags(sub, "seed", "threads", "guard_ops")
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
        if args.subcommand == "oracle":
            _select_oracle_inputs(args)
        _resolve_common(args, args.default_output)
        payload = args.handler(args)
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
    # The resolved flags are the config: a flag the parser gives a command always reaches it.
    config = {k: v for k, v in vars(args).items() if k not in ("subcommand", "handler", "default_output", "seed")}
    manifest = {
        "subcommand": args.subcommand,
        "config": config,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.perf_counter() - start, 6),
        "output_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }
    print(canonical_json(manifest), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
