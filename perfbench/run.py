"""Benchmark of the besmin pipeline through its command-line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``besmin`` is imported from
``src/``.  Workloads (see ``workloads.py``):

- ``random-minimise``: ``besmin minimize FILE --emit bes`` on seeded random
  systems with n = 300 / 600 / 1200 equations, which barely minimise.
- ``mc-minimise``: the same command on model-checking systems of a
  replicated LTS (600 / 1200 / 2400 equations), which really minimise.
- ``verify-small``: ``besmin verify FILE`` and then ``besmin solve FILE``
  on 480 seeded random systems with n = 3 .. 8.

Load model: one process, one thread, a closed loop with a single client;
each command is one in-process call of ``besmin.cli.main`` and the next
starts when it returns.  An operation is the commands run on one input
(verify and solve count as one).  Set-up (import, input generation,
writing the files, reference answers, warm-up) is repeated three times
and its median reported.  Operations run in groups of one per size rung
until ``--seconds`` have passed and every input has been run at least
once.  Every output is checked against references the benchmark computes
without ``besmin``'s solvers; a command fails if it raises, exits
non-zero, writes to stderr, gives a wrong answer, differs from an earlier
run on the same input or exceeds the per-command time limit.

Times are corrected for the machine's speed (see ``speed.py``).  With
``--trace 0`` the last line holds the end-to-end metrics:

- ``setup_s``: median set-up time.
- ``op_p50_ms``: median operation latency.
- ``op_tail_ms``: latency at the workload's fixed tail percentile (p75 on
  the minimise ladders, p90 on verify-small); the number of operations
  beyond it is in the meta line.
- ``eqs_per_s``: input equations processed per second of operation time,
  as the median over the groups of the run.
- ``growth_exp``: log-log slope of the median operation latency against
  the rung's input size, fitted over the rungs of the size ladder.
- ``size_ratio``: sum of minimised sizes over sum of input sizes, over the
  distinct inputs (on verify-small from one untimed ``minimize`` per input).
- ``peak_rss_mb``: the process's peak resident memory.

With ``--trace 1`` every command runs untraced and then again with spans
around the calls into each layer, and the last line holds per-layer
metrics: uncorrected self seconds per command, counts, escaped
exceptions, the tracing overhead and how much of each command the
``cli.main`` root spans cover.  Lines before the last, starting with
``#``, give one row per size rung and the run's metadata; the same data,
and the spans, are written under ``.bench_build/perfbench/``.

The exit code is 0 when every check passed, 1 when one failed and 2 when
the benchmark could not start (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
OP_LIMIT_S = 60.0

sys.path[:0] = [str(SRC), str(HERE)]

import refcheck  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import Call  # noqa: E402


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Record:
    call: Call
    seconds: float
    status: object  # exit code, or a description of what went wrong
    stdout: str
    stderr: str
    group: int = 0  # the group of the schedule the operation ran in


def import_besmin():
    """Import ``besmin`` from ``src/`` afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "besmin" or n.startswith("besmin.")]:
        del sys.modules[name]
    cli = importlib.import_module("besmin.cli")
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"besmin was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_call(call: Call) -> Record:
    out, err = io.StringIO(), io.StringIO()
    # Looked up on every call so that the traced pass reaches the wrapper.
    main = sys.modules["besmin.cli"].main
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            status = main(list(call.argv))
        except OpTimeout:
            status = f"exceeded the {OP_LIMIT_S:g} s limit"
        except SystemExit as exc:
            status = f"exit({exc.code})"
        except Exception as exc:
            status = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
    return Record(call, elapsed, status, out.getvalue(), err.getvalue())


def set_up(workload: workloads.Workload, seed: int, directory: Path):
    """Time one set-up, corrected for the machine's speed, and its schedule."""
    factor = speed.REFERENCE_S / statistics.median(speed.yardstick() for _ in range(3))
    start = perf_counter()
    import_besmin()
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    groups = workload.make(seed, directory)
    smallest = groups[0][0].input.rung
    for call in groups[0]:
        if call.input.rung == smallest:
            run_call(call)
    return (perf_counter() - start) * factor, groups


def measure(groups: list[list[Call]], seconds: float, tracer=None):
    """Closed loop over whole groups until time is up and every group ran.

    The yardstick runs before every group.  With a tracer, every operation
    runs once untraced and then once traced, so that both passes see the
    same conditions.
    """
    records, traced, marks = [], [], []
    start = perf_counter()
    while len(marks) < len(groups) or perf_counter() - start < seconds:
        group = len(marks)
        marks.append((perf_counter(), speed.yardstick()))
        for call in groups[group % len(groups)]:
            records.append(run_call(call))
            records[-1].group = group
            if tracer is not None:
                tracer.op = len(traced)
                tracer.enable()
                try:
                    traced.append(run_call(call))
                finally:
                    tracer.disable()
    return records, traced, speed.factors(marks), perf_counter() - start


def check_records(records: list[Record]) -> tuple[list[str], dict[str, int]]:
    """Problems found, and the minimised size per input path."""
    problems = []
    sizes: dict[str, int] = {}
    verdicts: dict[tuple, tuple] = {}
    first_output: dict[tuple, str] = {}
    for r in records:
        problem = None
        if r.status != 0:
            problem = f"status {r.status}"
        elif r.stderr:
            problem = f"wrote to stderr: {r.stderr[:200]!r}"
        else:
            key = (r.call.argv, r.stdout)
            if key not in verdicts:
                try:
                    verdicts[key] = (None, workloads.check(r.call, r.stdout))
                except refcheck.CheckError as exc:
                    verdicts[key] = (str(exc), None)
            problem, out_size = verdicts[key]
            if problem is None:
                if first_output.setdefault(r.call.argv, r.stdout) != r.stdout:
                    problem = "output differs from an earlier run on the same input"
                elif out_size is not None:
                    sizes[r.call.input.path] = out_size
        if problem is not None:
            problems.append(f"{' '.join(r.call.argv)}: {problem}")
    return problems, sizes


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def src_lines() -> int:
    return sum(
        1
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def operations(records: list[Record], latencies: list[float]) -> list[tuple]:
    """(group, input, latency) per operation: the commands of one group on one input."""
    ops: dict[tuple, list] = {}
    for r, t in zip(records, latencies):
        ops.setdefault((r.group, r.call.input.path), [r.group, r.call.input, 0.0])[2] += t
    return [tuple(op) for op in ops.values()]


def throughput(ops: list[tuple]) -> float:
    """Median over groups of the input equations processed per second."""
    eqs: dict[int, int] = {}
    busy: dict[int, float] = {}
    for group, inp, t in ops:
        eqs[group] = eqs.get(group, 0) + len(inp.equations)
        busy[group] = busy.get(group, 0.0) + t
    return statistics.median(eqs[g] / busy[g] for g in eqs)


def ladder_rows(ops: list[tuple], sizes: dict[str, int]) -> list[dict]:
    rows = []
    for rung in sorted({inp.rung for _, inp, _ in ops}):
        mine = [(inp, t) for _, inp, t in ops if inp.rung == rung]
        inputs = {inp.path: inp for inp, _ in mine}
        size_in = sum(refcheck.size(inputs[p].equations) for p in inputs if p in sizes)
        rows.append(
            {
                "n": rung,
                "ops": len(mine),
                "inputs": len(inputs),
                "op_p50_ms": statistics.median(t for _, t in mine) * 1000,
                "eqs_per_s": sum(len(inp.equations) for inp, _ in mine) / sum(t for _, t in mine),
                "size_ratio": sum(sizes[p] for p in inputs if p in sizes) / size_in
                if size_in
                else None,
            }
        )
    return rows


def log_log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(workload, ops, wall, sizes, setup_times, rows) -> tuple[dict, dict]:
    latencies = [t for _, _, t in ops]
    tail, beyond = percentile(latencies, workload.tail_percentile)
    inputs = {inp.path: inp for _, inp, _ in ops}
    size_in = sum(refcheck.size(inputs[p].equations) for p in sizes)
    growth = log_log_slope([(row["n"], row["op_p50_ms"]) for row in rows])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "eqs_per_s": (throughput(ops), "1/s"),
        "growth_exp": (growth, "slope"),
        "size_ratio": (sum(sizes.values()) / size_in if size_in else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    meta = {
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": beyond,
        "ops": len(ops),
        "measured_s": wall,
    }
    return metrics, meta


def per_layer(untraced: list[Record], traced: list[Record], prof: spans.Profile) -> dict:
    ops = len(traced)
    per_op = {
        "parse.parse_bes_s": "parse.parse_bes",
        "syntax.self_s": "syntax",
        "syntax.ranks_s": "syntax.ranks",
        "syntax.print_bes_s": "syntax.print_bes",
        "build.self_s": "build",
        "build.build_graph_s": "build.build_graph",
        "build.reduce_graph_s": "build.reduce_graph",
        "build.normalise_graph_s": "build.normalise_graph",
        "graph.self_s": "graph",
        "graph.bisimilar_s": "graph.bisimilar",
        "graph.minimize_s": "graph.minimize",
        "graph.translate_s": "graph.translate",
        "solve.self_s": "solve",
        "solve.solve_recursive_s": "solve.solve_recursive",
        "solve.solve_gauss_s": "solve.solve_gauss",
        "verify.verify_system_s": "verify.verify_system",
        "cli.main_s": "cli.main",
    }
    metrics = {m: (prof.self_time.get(k, 0.0) / ops, "s/command") for m, k in per_op.items()}
    parse_time = prof.self_time.get("parse.parse_bes", 0.0)
    builds = prof.calls.get("build.build_graph", 0)
    nodes_in = prof.counts.get("graph.minimize.nodes_in", 0)
    minimizes = prof.calls.get("graph.minimize", 0)
    blocks = prof.counts.get("graph.minimize.blocks", 0)
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    metrics.update(
        {
            "parse.kb_per_s": (
                prof.counts.get("parse.parse_bes.bytes", 0) / 1000 / parse_time
                if parse_time
                else 0.0,
                "kB/s",
            ),
            "build.nodes": (prof.counts.get("build.build_graph.nodes", 0) / builds if builds else 0.0, "count"),
            "build.edges": (prof.counts.get("build.build_graph.edges", 0) / builds if builds else 0.0, "count"),
            "graph.blocks": (blocks / minimizes if minimizes else 0.0, "count"),
            "graph.node_ratio": (blocks / nodes_in if nodes_in else 0.0, "ratio"),
            "solve.calls": (
                (prof.calls.get("solve.solve_gauss", 0) + prof.calls.get("solve.solve_recursive", 0)) / ops,
                "count",
            ),
        }
    )
    metrics.update({f"{layer}.failed": (prof.failed[layer], "count") for layer in spans.LAYERS})
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    metrics["trace.root_coverage"] = (prof.root_time / traced_s, "ratio")
    return metrics


def shares(prof: spans.Profile) -> dict:
    total = prof.root_time
    return {
        name: prof.self_time[name] / total
        for layer, functions in spans.TRACED.items()
        for name in (layer, *(f"{layer}.{f}" for f in functions))
        if prof.self_time.get(name)
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        import_besmin()
    except ImportError as exc:
        print(f"error: cannot import besmin from {SRC}: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs_dir = OUT / f"inputs-{tag}"

    setup_times = []
    for _ in range(SETUP_REPEATS):
        groups = None  # so that every set-up starts from the same heap
        gc.collect()
        elapsed, groups = set_up(workload, args.seed, inputs_dir)
        setup_times.append(elapsed)
    gc.collect()
    # The benchmark's own objects (inputs, references) would otherwise be
    # scanned by every full collection the program triggers.
    gc.freeze()

    report: dict = {}
    if args.trace == 0:
        records, _, factors, wall = measure(groups, args.seconds)
        ops = operations(records, [r.seconds * factors[r.group] for r in records])
        # Untimed: the minimised size of every input that has no minimize call.
        minimised = {r.call.input.path for r in records if r.call.command == "minimize"}
        extra = [
            run_call(workloads.minimize_call(inp))
            for inp in {inp.path: inp for _, inp, _ in ops}.values()
            if inp.path not in minimised
        ]
        problems, sizes = check_records(records + extra)
        attempted = len(records) + len(extra)
        rows = ladder_rows(ops, sizes)
        metrics, meta = end_to_end(workload, ops, wall, sizes, setup_times, rows)
        meta["uncorrected_op_p50_ms"] = statistics.median(
            t for _, _, t in operations(records, [r.seconds for r in records])
        ) * 1000
    else:
        tracer = spans.Tracer()
        untraced, traced, factors, _ = measure(groups, args.seconds, tracer)
        problems, sizes = check_records(untraced + traced)
        prof = spans.profile(tracer.spans)
        if prof.orphans:
            problems.append(f"{prof.orphans} spans lie outside any cli.main root")
        attempted = len(untraced) + len(traced)
        rows = ladder_rows(operations(untraced, [r.seconds * factors[r.group] for r in untraced]), sizes)
        metrics = per_layer(untraced, traced, prof)
        meta = {"ops": len(traced), "self_time_shares": shares(prof)}
        report["spans"] = str(OUT / f"spans-{tag}.jsonl")
        with open(report["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    meta.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "src_lines": src_lines(),
            "setup_runs_s": setup_times,
            "failures": problems[:20],
        }
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report.update({"meta": meta, "rows": rows, "result": result})
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    shutil.rmtree(inputs_dir, ignore_errors=True)

    for row in rows:
        print("# row " + json.dumps(row))
    print("# meta " + json.dumps(meta))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
