"""Solve-ledger benchmark: instance spec in, verified assignment out.

Run from the repository root:

    python3 perfbench/run.py --workload cycle-recurring --seed 1 \
        --seconds 20 --trace 0

Each timed solve builds a fresh instance, calls ``repro.core.solve(
instance, scheduler=make_scheduler("serial"))`` and checks the result
with ``verify_solution``.  Solve and set-up times are CPU seconds of
this single-threaded process, so time the host's scheduler gives to
other processes does not count; wall times are printed beside them.
``--trace 0`` reports the end-to-end metrics of untraced solves;
``--trace 1`` reports the per-layer ledger of a traced run, checked
against an untraced reference run of the same seed in a child process.
The last line of standard output is one JSON object; the lines before it
print every metric by name with its unit.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread: numpy's BLAS pool must not compete with the solve for the
# host's few cores.  Set before ``repro`` (and numpy) is imported.
for _pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

from ledger import (
    SpanRecorder,
    layer_metric_units,
    ledger_metrics,
    solve_digest,
    traced_solve,
    vmrss_mb,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Each workload: stated size, whether set-up fills the artifact store
#: with the workload's own (recurring) shape, and the CPU seconds of one
#: solve of the seed program on the 2-CPU machine the benchmark was tuned
#: on, which sizes a run's solve count (see ``solve_count``).
WORKLOADS = {
    "cycle-recurring": {"n": 20_000, "fill_store": True, "solve_cpu_s": 0.8},
    "regular-fresh": {"n": 10_000, "fill_store": False, "solve_cpu_s": 1.85},
    "triples-fresh": {"n": 10_000, "fill_store": False, "solve_cpu_s": 1.3},
}

#: Size of the set-up solve that finishes lazy initialisation on the
#: fresh workloads; its shape never recurs in the timed solves.
WARMUP_N = 200
WARMUP_SEED = 7
ALPHABET = 3
REGULAR_DEGREE = 4
#: A run makes at least this many timed solves, and ``peak_rss_mb`` is
#: the high-water mark over set-up and this many solves, so runs with a
#: different ``--seconds`` stay comparable.
MIN_SOLVES = 3
#: Set-up is measured this many times per run: the run itself plus
#: fresh child processes.
SETUP_SAMPLES = 3
#: The timed loop stops early after this many times ``--seconds`` of wall
#: time, so that a starved host or a much slower program still ends the
#: run within its time limit.
WALL_CAP_FACTOR = 4
CHILD_TIMEOUT_S = 150


class PinnedEnvironmentError(Exception):
    """A ``REPRO_*`` plane switch is set; the measured program is not pinned."""


class ActiveRecorderError(Exception):
    """A ``repro.obs`` recorder is live, which changes the commit path."""


class UnverifiedSolveError(Exception):
    """A solve's assignment failed ``verify_solution``."""


def check_environment(environ) -> None:
    """Refuse any ``REPRO_*`` switch: every plane must run at its default.

    Covers ``REPRO_ENGINE``, ``REPRO_DECIDE``, ``REPRO_GRAPH``,
    ``REPRO_ARTIFACTS``, ``REPRO_IPC``, ``REPRO_FAULTS`` and
    ``REPRO_PROFILE``, and the capacity and compile-limit knobs.
    """
    pinned = sorted(name for name in environ if name.startswith("REPRO_"))
    if pinned:
        raise PinnedEnvironmentError(
            f"plane switches must be unset for a benchmark run: {', '.join(pinned)}"
        )


def import_program():
    """Import ``repro`` from this checkout's ``src`` directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def program_modes() -> dict:
    """The resolved plane of every switch the benchmark pins."""
    from repro.artifacts import artifacts_mode
    from repro.core.vector import decide_mode
    from repro.graph import active_backend
    from repro.probability import engine_mode

    return {
        "artifacts": artifacts_mode(),
        "decide": decide_mode(),
        "engine": engine_mode(),
        "graph": active_backend(),
    }


def require_no_recorder() -> None:
    from repro.obs import active

    if active() is not None:
        raise ActiveRecorderError(
            "a repro.obs recorder is active; commit_class would switch to "
            "per-op commit"
        )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def solve_count(workload: str, seconds: float) -> int:
    """Timed solves in a run of ``seconds``: a count, not a time budget.

    The store keeps what every fresh shape leaves behind, so the heap and
    each full garbage collection grow over a run, and a solve's time
    depends on its position in the run.  A time budget would compare
    different mixes of early and late solves between runs and between
    commits; a count fixed by ``seconds`` times the same sequence each
    time, in about ``seconds`` of CPU time at the seed program.
    """
    return max(MIN_SOLVES, round(seconds / WORKLOADS[workload]["solve_cpu_s"]))


def solve_seed(seed: int, index: int) -> int:
    """The generator seed of the ``index``-th solve of a run."""
    return seed * 100_003 + index


def build_instance(workload: str, n: int, seed: int):
    """The instance one solve of ``workload`` starts from."""
    from repro.generators import (
        all_zero_edge_instance,
        all_zero_triple_instance,
        cycle_graph,
        cyclic_triples,
        random_regular_graph,
    )

    if workload == "cycle-recurring":
        return all_zero_edge_instance(cycle_graph(n), ALPHABET)
    if workload == "regular-fresh":
        return all_zero_edge_instance(
            random_regular_graph(n, REGULAR_DEGREE, seed=seed), ALPHABET
        )
    if workload == "triples-fresh":
        # A seeded relabelling of the triangle chain: one event shape,
        # new structure on every solve.
        labels = list(range(n))
        random.Random(seed).shuffle(labels)
        triples = [
            tuple(sorted(labels[node] for node in triple))
            for triple in cyclic_triples(n)
        ]
        return all_zero_triple_instance(n, triples, ALPHABET)
    raise ValueError(f"unknown workload {workload!r}")


def gate(instance, result, verdict) -> str:
    """The correctness gate: raise unless verified; return the digest."""
    if not verdict.ok:
        raise UnverifiedSolveError(
            f"unverified assignment: {len(verdict.unfixed)} unfixed, "
            f"{len(verdict.occurring)} occurring events"
        )
    return solve_digest(instance, result)


def untraced_solve(build):
    """One timed solve: ``(cpu seconds, wall seconds, instance, result, verdict)``."""
    from repro.core import solve
    from repro.lll import verify_solution
    from repro.runtime import make_scheduler

    wall, cpu = time.perf_counter(), time.process_time()
    instance = build()
    result = solve(instance, scheduler=make_scheduler("serial"))
    verdict = verify_solution(instance, result.assignment)
    return (time.process_time() - cpu, time.perf_counter() - wall,
            instance, result, verdict)


def set_up(workload: str, n: int, seed: int) -> None:
    """Fill the store (recurring) or finish lazy initialisation (fresh)."""
    if WORKLOADS[workload]["fill_store"]:
        size, generator_seed = n, solve_seed(seed, 0)
    else:
        size, generator_seed = WARMUP_N, WARMUP_SEED
    _, _, instance, result, verdict = untraced_solve(
        lambda: build_instance(workload, size, generator_seed)
    )
    gate(instance, result, verdict)


def wall_since_process_start() -> float:
    """Wall time since this process was started, from ``/proc``."""
    with open("/proc/self/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def timed_loop(workload: str, n: int, seed: int, count: int, solve_one,
               wall_cap_s: float):
    """Solve ``count`` times, or fewer if ``wall_cap_s`` of wall time pass.

    ``solve_one(build)`` returns ``(cpu seconds, wall seconds, instance,
    result, verdict)``.  Returns the per-solve records ``(cpu seconds, wall
    seconds, digest, variables)``, all ``None`` but ``variables`` = 0 for a
    solve that raised or failed the gate, plus the
    high-water RSS after ``MIN_SOLVES`` solves and the per-solve VmRSS
    retained from one solve's start to the next.
    """
    records = []
    retained = []
    peak_mb = None
    wall_cap = time.perf_counter() + wall_cap_s
    index = 0
    while index < count:
        if index >= MIN_SOLVES and time.perf_counter() >= wall_cap:
            print(f"# wall cap of {wall_cap_s:g} s reached after {index} solves")
            break
        require_no_recorder()
        rss_before = vmrss_mb()
        generator_seed = solve_seed(seed, index + 1)
        try:
            cpu, wall, instance, result, verdict = solve_one(
                lambda: build_instance(workload, n, generator_seed)
            )
            digest = gate(instance, result, verdict)
            records.append((cpu, wall, digest, len(instance.variables)))
        except Exception as error:  # a failed solve is counted, not fatal
            print(f"# solve {index} failed: {type(error).__name__}: {error}")
            traceback.print_exc(file=sys.stderr)
            records.append((None, None, None, 0))
        instance = result = verdict = None
        retained.append(vmrss_mb() - rss_before)
        index += 1
        if index == MIN_SOLVES:
            peak_mb = maxrss_mb()
    return records, peak_mb, retained


def measure_setup_in_child(args) -> float:
    """Set-up CPU time of a fresh process, from its own start to ready."""
    output = run_child(args, args.seconds, ["--setup-probe"])
    for line in output.splitlines():
        if line.startswith("#setup "):
            return float(line.split()[1])
    raise RuntimeError("set-up probe printed no timing")


def run_child(args, seconds: float, extra) -> str:
    """Run this benchmark untraced in a child process; its stdout."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", "0", *extra,
    ]
    if args.n is not None:
        command += ["--n", str(args.n)]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=str(ROOT),
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"child run failed ({completed.returncode}): {completed.stderr[-2000:]}"
        )
    return completed.stdout


def untraced_run(args, n: int) -> dict:
    """The timed solves of an untraced run, with their failures and peak RSS."""
    records, peak_mb, _ = timed_loop(
        args.workload, n, args.seed, solve_count(args.workload, args.seconds),
        untraced_solve, WALL_CAP_FACTOR * args.seconds,
    )
    times = [r[0] for r in records if r[0] is not None]
    walls = [r[1] for r in records if r[1] is not None]
    failed = sum(1 for r in records if r[0] is None)
    return {"records": records, "times": times, "walls": walls,
            "failed": failed, "peak_mb": peak_mb}


def end_to_end_metrics(args, n: int, setup_s: float) -> tuple:
    """``--trace 0``: ``(metrics, attempted, failed, notes)``."""
    run = untraced_run(args, n)
    if not run["times"]:
        raise RuntimeError("no solve of the run was verified")
    samples = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(measure_setup_in_child(args))
    attempted = len(run["records"])
    times = run["times"]
    variables = sum(r[3] for r in run["records"])
    metrics = {
        "solve_p50_s": (statistics.median(times), "s"),
        "fixed_vars_per_s": (variables / sum(times), "1/s"),
        "peak_rss_mb": (run["peak_mb"], "MB"),
        "setup_s": (statistics.median(samples), "s"),
        "verified_frac": ((attempted - run["failed"]) / attempted, "ratio"),
    }
    notes = [
        f"solves: {attempted} timed, {len(times)} verified "
        f"(fail_frac {run['failed'] / attempted:.4f})",
        f"solve cpu times (s): {' '.join(f'{t:.3f}' for t in times)}",
        f"solve wall times (s): {' '.join(f'{t:.3f}' for t in run['walls'])}",
        f"setup cpu samples (s): {' '.join(f'{s:.3f}' for s in samples)}",
    ]
    return metrics, attempted, run["failed"], notes


def ledger_run(args, n: int) -> tuple:
    """``--trace 1``: ``(metrics, attempted, failed, notes)``.

    A digest that differs from the untraced reference counts as failed.
    """
    reference = None
    # The reference gets half the run; the traced pass repeats its solves.
    output = run_child(args, args.seconds / 2, ["--reference"])
    for line in output.splitlines():
        if line.startswith("#reference "):
            reference = json.loads(line[len("#reference "):])
    if reference is None or reference["p50_s"] is None:
        raise RuntimeError("untraced reference run produced no solves")

    recorder = SpanRecorder()
    solves = []  # (solve id, wall s, cpu s, counters) of each completed solve

    def solve_one(build):
        recorder.solve += 1
        wall, cpu = time.perf_counter(), time.process_time()
        instance, result, verdict, count = traced_solve(build, recorder)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        solves.append((recorder.solve, wall, cpu, count))
        return cpu, wall, instance, result, verdict

    with recorder:
        records, _, retained = timed_loop(
            args.workload, n, args.seed, len(reference["digests"]), solve_one,
            WALL_CAP_FACTOR * args.seconds,
        )
    trace_dir = ROOT / ".bench_build" / "perfbench"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    recorder.write(str(trace_path))

    mismatched = sum(
        1 for record, digest in zip(records, reference["digests"])
        if record[2] is None or record[2] != digest
    )
    if not solves:
        raise RuntimeError("every traced solve raised; no ledger for this run")
    values = ledger_metrics(recorder, solves, retained, reference["p50_s"])
    metrics = {
        name: (values[name], unit) for name, unit in layer_metric_units().items()
    }
    notes = [
        f"traced solves: {len(records)}, digests identical to untraced "
        f"reference: {mismatched == 0}",
        f"spans written to {trace_path.relative_to(ROOT)}",
    ]
    return metrics, len(records), mismatched, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal modes of the child processes a run starts.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--reference", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment(os.environ)
        import_program()
    except (PinnedEnvironmentError, FileNotFoundError, ImportError) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    n = args.n or WORKLOADS[args.workload]["n"]
    set_up(args.workload, n, args.seed)
    setup_s = time.process_time()
    if args.setup_probe:
        print(f"#setup {setup_s!r} {wall_since_process_start()!r}")
        return 0
    if args.reference:
        reference = untraced_run(args, n)
        times = reference["times"]
        print("#reference " + json.dumps({
            "digests": [record[2] for record in reference["records"]],
            "p50_s": statistics.median(times) if times else None,
        }))
        return 0
    modes = program_modes()
    print("# program: " + " ".join(f"{k}={v}" for k, v in modes.items()))
    print(f"# workload: {args.workload} n={n} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# setup: {setup_s:.3f} s cpu, "
          f"{wall_since_process_start():.3f} s wall since process start")
    if args.trace:
        metrics, attempted, failed, notes = ledger_run(args, n)
    else:
        metrics, attempted, failed, notes = end_to_end_metrics(args, n, setup_s)
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
