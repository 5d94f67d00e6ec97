"""gramexpect benchmark: CLI invocations timed in-process, outputs checked.

Run from the repository root:

    python3 bench/run.py --workload expect-deep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

One process drives ``gramexpect.cli.main(argv)`` in a closed loop, one
invocation after another, for ``--seconds``; a warm-up invocation comes
first and is not timed. Every invocation's stdout is compared by SHA-256
with the workload's reference. With ``--trace 1`` untraced and traced
invocations alternate, and the per-layer metrics come from the traced
ones. The last line of stdout is one JSON object with the result; the
lines before it are the same figures for people, plus the host context.
See bench/README.md for each workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from tracing import Hook, Tracer  # noqa: E402

DEFAULT_SEED = 0
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 7
# Fewer samples beyond a percentile than this and it is not reported as the tail.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # Work per invocation: replicates for simulate, exact terms for expect.
    work: int
    threads: int = 1
    # Workload whose stdout this one must reproduce byte for byte.
    same_output_as: str | None = None

    @property
    def is_expect(self) -> bool:
        return self.argv[0] == "expect"


EXPECT_TERMS = 150
SIM_DET = ("simulate", "--paper", "-n", "400", "--reps", "100", "--max-index", "4", "--kind", "det")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "expect-deep",
            ("expect", "-N", str(EXPECT_TERMS), "--kind", "both", "--path", "all", "--output", "json"),
            work=(EXPECT_TERMS + 1) * 2,
        ),
        Workload("simulate-det", SIM_DET + ("--threads", "1"), work=100),
        Workload(
            "simulate-perm",
            ("simulate", "--paper", "-n", "12", "--reps", "5", "--max-index", "4", "--kind", "perm",
             "--threads", "1"),
            work=5,
        ),
        Workload("simulate-det-par", SIM_DET + ("--threads", "2"), work=100, threads=2,
                 same_output_as="simulate-det"),
    )
}


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result printed)."""


# ------------------------------------------------------------ invocation


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    code: int
    stdout: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()


def _cpu_s() -> float:
    """CPU time of this process and of its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def invoke(cli, argv: list[str]) -> Invocation:
    """One ``cli.main(argv)`` call with stdout and stderr captured."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=err)
        code = -1
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    if code != 0:
        print(f"bench: exit {code} from {' '.join(argv)}: {err.getvalue().strip()}", file=sys.stderr)
    return Invocation(wall, cpu, code, out.getvalue())


# ------------------------------------------------------------ inputs and references


@dataclass(frozen=True)
class Prepared:
    argv: list[str]
    model_file: Path | None
    reference: str | None
    problems: tuple[str, ...]
    # The reference invocation, when it ran this workload's own argv: it
    # then doubles as the untimed warm-up.
    warmup: Invocation | None


def _argv_for(workload: Workload, seed: int, model_file: Path | None) -> list[str]:
    argv = list(workload.argv)
    if workload.is_expect:
        argv[1:1] = ["--model", str(model_file)] if model_file else ["--paper"]
    else:
        argv += ["--seed", str(seed)]
    return argv


def prepare(cli, workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Inputs for ``seed`` and the stdout digest every invocation must match.

    At the default seed the reference is the frozen digest. At any other
    seed it is the digest of a first untimed invocation whose output passed
    the independent checks in ``checks``. A workload that must reproduce
    another's output takes that workload's reference.
    """
    ell, probs, model_file = checks.PAPER_ELL, checks.PAPER_PROBS, None
    if workload.is_expect and seed != DEFAULT_SEED:
        model = checks.seeded_model(seed)
        ell, probs = model["ell"], tuple(Fraction(p) for p in model["probs"])
        model_file = workdir / f"model-{seed}.json"
        model_file.write_text(json.dumps(model) + "\n", encoding="utf-8")
    source = WORKLOADS[workload.same_output_as] if workload.same_output_as else workload
    ref_argv = _argv_for(source, seed, model_file)
    first = invoke(cli, ref_argv)
    if source.is_expect:
        problems = checks.check_expect(first.stdout, ell, probs, EXPECT_TERMS)
    else:
        problems = checks.check_simulate(first.stdout, ref_argv, ell, probs)
    if first.code != 0:
        problems.append(f"reference invocation exited {first.code}")
    frozen = REFERENCE["stdout_sha256"][source.name] if seed == DEFAULT_SEED else None
    if frozen and first.digest != frozen:
        problems.append(f"{source.name} stdout digest {first.digest} is not the frozen {frozen}")
    reference = frozen or (None if problems else first.digest)
    argv = _argv_for(workload, seed, model_file)
    warmup = first if argv == ref_argv else None
    return Prepared(argv, model_file, reference, tuple(problems), warmup)


# ------------------------------------------------------------ measurement


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    That is the (TAIL_BEYOND + 1)-th largest sample; with too few samples
    it is the maximum, reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(prepared: Prepared, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from launching a fresh interpreter to CLI imported and model loaded.

    One untimed launch first fills the bytecode cache, as on any installed
    system. Loading includes the moment matrix and its PSD check, which
    every command pays before its first result.
    """
    code = (
        "import sys, gramexpect.cli\n"
        "from gramexpect.models import model_from_json_str, moment_matrix, paper_model\n"
        "model = model_from_json_str(open(sys.argv[1]).read()) if len(sys.argv) > 1 else paper_model()\n"
        "moment_matrix(model)\n"
        "print('ready', flush=True)\n"
    )
    cmd = [sys.executable, "-c", code] + ([str(prepared.model_file)] if prepared.model_file else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise BenchError(f"set-up interpreter failed (exit {proc.returncode})")
        if i:
            times.append(elapsed)
    return times


def _max_bits(tracer: Tracer, args: tuple, seq) -> None:
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in seq.values), default=0)
    tracer.maxima["sequences.max_bits"] = max(tracer.maxima["sequences.max_bits"], bits)


def _count_draws(tracer: Tracer, args: tuple, vector) -> None:
    model = args[0]
    # An atoms model takes one draw per column; a count model one per trial
    # (the entries of the count vector), plus one for ell if ell is random.
    draws = 1 if hasattr(model, "atoms") else sum(vector) + hasattr(model, "ell_law")
    tracer.counts["models.categorical_draws"] += draws


def _count_replicates(tracer: Tracer, args: tuple, report) -> None:
    tracer.counts["montecarlo.replicates"] += report.reps


CLI, MC = "gramexpect.cli", "gramexpect.montecarlo"
ROUTES = {
    "recursion_det": "expected_det_recursion",
    "recursion_perm": "expected_perm_recursion",
    "char_det": "det_sequence_from_char",
    "char_perm": "expected_perm_from_char",
    "egf_det": "egf_expand_det",
    "egf_perm": "egf_expand_perm",
}
# Each name is wrapped where its caller looks it up, so the span measures
# the calls from that layer into the next.
HOOKS = (
    Hook("cli", CLI, "main"),
    *(Hook("scalars.render", CLI, f) for f in ("canonical_json", "decimal_string", "format_rational")),
    Hook("models.moment_matrix", CLI, "moment_matrix"),
    Hook("models.moment_matrix", MC, "moment_matrix"),
    Hook("models.sample_vector", MC, "sample_vector", on_result=_count_draws),
    Hook("matrices.leverrier", "gramexpect.models", "leverrier_char_coeffs"),
    Hook("matrices.leverrier", "gramexpect.sequences", "leverrier_char_coeffs"),
    Hook("traces.by_power", CLI, "traces_by_power"),
    Hook("traces.by_power", MC, "traces_by_power"),
    *(Hook(f"sequences.{route}", CLI, fn, on_result=_max_bits) for route, fn in ROUTES.items()),
    Hook("series.exp", "gramexpect.series", "TruncatedSeries.exp"),
    Hook("series.inverse", "gramexpect.series", "TruncatedSeries.inverse"),
    Hook("montecarlo.simulate", CLI, "simulate", on_result=_count_replicates),
    Hook("montecarlo.det_coeffs", MC, "_char_coefficient_values"),
    Hook("montecarlo.gram", MC, "_gram_entries"),
    Hook("montecarlo.aggregate", MC, "_aggregate"),
    Hook("oracles.permpoly", MC, "permanental_poly_coeffs"),
    Hook("oracles.ryser", "gramexpect.oracles", "_perm_ryser_entries", timed=False),
)


def _self(span):
    return (span,), lambda snap, w: snap["self_s"][span]


def _calls(span):
    return (span,), lambda snap, w: snap["calls"][span]


def _count(name, span):
    return (span,), lambda snap, w: snap["counts"][name]


# name -> (unit, (spans it reads, reader)). Self time unless noted.
LAYER_METRICS = {
    "cli.self_s": ("s", _self("cli")),
    "scalars.render_s": ("s", _self("scalars.render")),
    "scalars.stdout_bytes": ("bytes", ((), lambda snap, w: snap["counts"]["scalars.stdout_bytes"])),
    "models.moment_matrix_s": ("s", _self("models.moment_matrix")),
    "models.sample_vector_s": ("s", _self("models.sample_vector")),
    "models.columns_sampled": ("count", _calls("models.sample_vector")),
    "models.categorical_draws": ("count", _count("models.categorical_draws", "models.sample_vector")),
    "matrices.leverrier_s": ("s", _self("matrices.leverrier")),
    "matrices.leverrier_calls": ("count", _calls("matrices.leverrier")),
    "traces.by_power_s": ("s", _self("traces.by_power")),
    **{f"sequences.{route}_s": ("s", _self(f"sequences.{route}")) for route in ROUTES},
    "sequences.max_bits": (
        "bits",
        (tuple(f"sequences.{r}" for r in ROUTES), lambda snap, w: snap["maxima"]["sequences.max_bits"]),
    ),
    "series.exp_s": ("s", _self("series.exp")),
    "series.inverse_s": ("s", _self("series.inverse")),
    # Inclusive time of simulate; montecarlo.self_s is its self time.
    "montecarlo.simulate_s": (
        "s", (("montecarlo.simulate",), lambda snap, w: snap["total_s"]["montecarlo.simulate"])
    ),
    "montecarlo.self_s": ("s", _self("montecarlo.simulate")),
    "montecarlo.det_coeffs_s": ("s", _self("montecarlo.det_coeffs")),
    "montecarlo.gram_s": ("s", _self("montecarlo.gram")),
    "montecarlo.aggregate_s": ("s", _self("montecarlo.aggregate")),
    # With a pool, the parent's self time in simulate is mostly waiting.
    "montecarlo.pool_wait_s": (
        "s",
        (("montecarlo.simulate",),
         lambda snap, w: snap["self_s"]["montecarlo.simulate"] if w.threads > 1 else 0.0),
    ),
    "montecarlo.replicates": ("count", _count("montecarlo.replicates", "montecarlo.simulate")),
    "oracles.permpoly_s": ("s", _self("oracles.permpoly")),
    "oracles.permpoly_calls": ("count", _calls("oracles.permpoly")),
    "oracles.ryser_calls": ("count", _calls("oracles.ryser")),
}
OVERHEAD_METRICS = {
    "trace.wall_s_p50": "s",
    "trace.untraced_wall_s_p50": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Run:
    warmup: Invocation
    timed: list[Invocation]
    traced: list[Invocation]
    layer_rows: list[dict[str, float]]
    missing: set[str]

    @property
    def checked(self) -> list[Invocation]:
        return [self.warmup, *self.timed, *self.traced]


def _layer_row(tracer: Tracer, workload: Workload) -> dict[str, float]:
    snap = tracer.snapshot()
    return {name: read(snap, workload) for name, (_, (_, read)) in LAYER_METRICS.items()}


def missing_metrics(missing_spans: set[str]) -> set[str]:
    """Layer metrics that read a span whose hook found no target."""
    return {name for name, (_, (spans, _)) in LAYER_METRICS.items() if missing_spans.intersection(spans)}


def measure(cli, workload: Workload, prepared: Prepared, seconds: float, trace: bool) -> Run:
    """Closed loop over invocations for ``seconds`` after one untimed warm-up.

    With ``trace`` each untraced invocation is followed by a traced one on
    the same CPU, so both see the same host conditions. At least one of
    each runs.

    On a shared host each CPU's speed drifts on its own over tens of
    seconds, and the scheduler leaves a lone process on one CPU for long
    stretches. A single-process workload therefore moves to the next CPU
    of its affinity set before each iteration, so a run samples every CPU
    alike; a pool workload keeps the whole set for its workers.
    """
    run = Run(prepared.warmup or invoke(cli, prepared.argv), [], [], [], set())
    tracer = Tracer()
    cpus = sorted(os.sched_getaffinity(0))
    rotate = workload.threads == 1 and len(cpus) > 1
    deadline = time.perf_counter() + seconds
    try:
        while not run.timed or time.perf_counter() < deadline:
            if rotate:
                os.sched_setaffinity(0, {cpus[len(run.timed) % len(cpus)]})
            run.timed.append(invoke(cli, prepared.argv))
            if trace:
                tracer.reset()
                with tracer.installed(HOOKS) as missing:
                    traced = invoke(cli, prepared.argv)
                tracer.counts["scalars.stdout_bytes"] = len(traced.stdout.encode("utf-8"))
                run.traced.append(traced)
                run.layer_rows.append(_layer_row(tracer, workload))
                run.missing = missing
    finally:
        os.sched_setaffinity(0, cpus)
    return run


# ------------------------------------------------------------ report


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, run: Run, setup: list[float], peak_rss_kib: int) -> dict:
    walls = [inv.wall_s for inv in run.timed]
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s_p50": _metric(statistics.median(walls), "s"),
        "wall_s_tail": _metric(tail(walls)[0], "s"),
        "cpu_s_p50": _metric(statistics.median(inv.cpu_s for inv in run.timed), "s"),
        "work_per_s": _metric(workload.work * len(walls) / sum(walls), "1/s"),
        "peak_rss_mib": _metric(peak_rss_kib / 1024, "MiB"),
    }


def per_layer(run: Run) -> dict:
    missing = missing_metrics(run.missing)
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        # A missing metric reads 0 here; its report line says "missing".
        value = 0 if name in missing else statistics.median(row[name] for row in run.layer_rows)
        metrics[name] = _metric(value, unit)
    traced = statistics.median(inv.wall_s for inv in run.traced)
    untraced = statistics.median(inv.wall_s for inv in run.timed)
    overhead = {
        "trace.wall_s_p50": traced,
        "trace.untraced_wall_s_p50": untraced,
        "trace.overhead_ratio": traced / untraced - 1,
    }
    metrics.update((name, _metric(value, OVERHEAD_METRICS[name])) for name, value in overhead.items())
    return metrics


def _calibration_s() -> float:
    """Median time of a fixed pure-Python loop: host context, never a divisor."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _loadavg() -> str | None:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def _git_rev() -> str | None:
    """HEAD of a git checkout rooted here, read from .git; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """Digest of the package sources, which names the code even without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "gramexpect").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _failed(run: Run, reference: str | None) -> int:
    return sum(inv.code != 0 or inv.digest != reference for inv in run.checked)


def run_workload(cli, workload: Workload, seed: int, seconds: float, trace: bool) -> None:
    """Measure one workload and print its report, the result object last."""
    nproc = len(os.sched_getaffinity(0))
    if workload.threads > nproc:
        raise BenchError(
            f"{workload.name} runs {workload.threads} pool workers but only {nproc} CPUs are "
            "available; oversubscribed timings would not measure the pool"
        )
    context = {
        "workload": workload.name,
        "argv": None,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc,
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
        "loadavg_before": _loadavg(),
        "calibration_s_before": _calibration_s(),
    }
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        prepared = prepare(cli, workload, seed, Path(workdir))
        context["argv"] = " ".join(prepared.argv)
        run = measure(cli, workload, prepared, seconds, trace)
        # Taken before the set-up launches below, which are children too.
        peak_rss_kib = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        setup = [] if trace else measure_setup(prepared)
    context["loadavg_after"] = _loadavg()
    context["calibration_s_after"] = _calibration_s()

    attempted, failed = len(run.checked), _failed(run, prepared.reference)
    print("context " + json.dumps(context, sort_keys=True))
    for problem in prepared.problems:
        print(f"problem {problem}")
    n = len(run.timed)
    if trace:
        metrics = per_layer(run)
        missing = missing_metrics(run.missing)
        for name, entry in metrics.items():
            shown = "missing" if name in missing else f"{entry['value']:.6g} {entry['unit']}"
            print(f"layer {name} {shown}")
        print(f"layer medians over {len(run.traced)} traced invocations, overhead against "
              f"{n} untraced ones interleaved with them")
    else:
        metrics = end_to_end(workload, run, setup, peak_rss_kib)
        _, pct = tail([inv.wall_s for inv in run.timed])
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "wall_s_p50": f"median of {n} invocations",
            "wall_s_tail": f"p{pct:.1f} of {n} invocations, {TAIL_BEYOND if n > TAIL_BEYOND else 0} beyond it",
            "cpu_s_p50": f"median of {n} invocations, self + children",
            "work_per_s": f"{workload.work} units per invocation, {n} invocations",
            "peak_rss_mib": "this process + its largest child",
        }
        for name, entry in metrics.items():
            print(f"metric {name} {entry['value']:.6g} {entry['unit']}  ({notes[name]})")
        print(f"metric error_rate {failed / attempted:.6g} ratio  ({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0 and not prepared.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def load_cli():
    """Import the CLI from this checkout's sources, never from site-packages."""
    if not (SRC / "gramexpect" / "cli.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gramexpect.cli

    return gramexpect.cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if args.workload == "all":
        # One fresh process per workload, so peak RSS and the children
        # counted in rusage belong to that workload alone.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    try:
        run_workload(load_cli(), WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
