"""Tiny-n self-test of the solve-ledger benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  * every metric named in ``BENCHMARK.json`` is printed with its unit,
    on every workload, traced and untraced, and the run reports correct;
  * the correctness gate trips on a corrupted assignment;
  * the environment pin rejects ``REPRO_DECIDE=scalar``.
Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

TINY_N = 300
TINY_SECONDS = "1"


def invoke(workload: str, trace: int, env=None) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(run.HERE / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", TINY_SECONDS, "--trace", str(trace),
        "--n", str(TINY_N),
    ]
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=run.CHILD_TIMEOUT_S, cwd=str(run.ROOT), env=env)


def check_metrics(failures: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(run.WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {workloads} != {sorted(run.WORKLOADS)}")
    for workload in workloads:
        for trace, metrics in expected.items():
            completed = invoke(workload, trace)
            where = f"{workload} --trace {trace}"
            if completed.returncode != 0:
                failures.append(f"{where}: exit {completed.returncode}: "
                                f"{completed.stderr[-500:]}")
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: run not correct: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != metrics:
                failures.append(f"{where}: metrics {got} != {metrics}")
            printed = {}
            for line in completed.stdout.splitlines():
                name, sep, rest = line.partition(" = ")
                if sep:
                    printed[name] = rest.rsplit(" ", 1)[-1]
            if printed != metrics:
                failures.append(f"{where}: printed {printed} != {metrics}")


def check_gate(failures: list) -> None:
    from repro.core import solve
    from repro.lll import verify_solution
    from repro.probability import PartialAssignment
    from repro.runtime import make_scheduler

    instance = run.build_instance("cycle-recurring", TINY_N, 0)
    result = solve(instance, scheduler=make_scheduler("serial"))
    run.gate(instance, result, verify_solution(instance, result.assignment))

    event = instance.events[0]
    zeroed = result.assignment.as_dict()
    for variable in event.variables:
        zeroed[variable.name] = 0
    dropped = result.assignment.as_dict()
    del dropped[instance.variables[0].name]
    for label, values in (("zeroed event", zeroed), ("dropped binding", dropped)):
        result.assignment = PartialAssignment(values)
        verdict = verify_solution(instance, result.assignment)
        try:
            run.gate(instance, result, verdict)
        except run.UnverifiedSolveError:
            continue
        failures.append(f"gate accepted a corrupted assignment ({label})")


def check_pin(failures: list) -> None:
    env = dict(os.environ, REPRO_DECIDE="scalar")
    completed = invoke("cycle-recurring", 0, env=env)
    if (
        completed.returncode == 0
        or completed.stdout.strip()
        or "PinnedEnvironmentError" not in completed.stderr
        or "REPRO_DECIDE" not in completed.stderr
    ):
        failures.append(
            f"REPRO_DECIDE=scalar not refused: exit {completed.returncode}, "
            f"stderr {completed.stderr[-300:]!r}"
        )


def main() -> int:
    run.check_environment(os.environ)
    run.import_program()
    failures: list = []
    check_pin(failures)
    check_gate(failures)
    check_metrics(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
