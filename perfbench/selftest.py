"""Self-test of the benchmark at tiny problem sizes (about a minute).

    python3 perfbench/selftest.py

Checks, on every workload, that the end-to-end run emits every end-to-end
metric of BENCHMARK.json and the traced run every per-layer metric, each as
a finite number with its unit; that the result line has exactly the keys
correct, attempted, failed and metrics; that the span tree is well formed (every parent exists,
encloses its children and belongs to the same operation, and every self
time is >= 0); and that the benchmark exits non-zero without a result line
in a directory holding only BENCHMARK.json and perfbench/.  Exits 1 on any
problem.
"""

import math
import shutil
import subprocess
import sys
import time

import run  # (sets the thread environment before numpy loads)


def tiny_workloads() -> dict:
    import workloads

    wls = [
        workloads.Sweep(n_nodes=257),
        workloads.Descent(n_nodes=129),
        workloads.Crosscheck(n_nodes=257),
    ]
    for wl in wls:
        wl.trace_ops = 2
    return {wl.name: wl for wl in wls}


def check_line(line: dict, spec: list, label: str) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(line)}")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append(f"{label}: attempted {line['attempted']!r}")
    if not isinstance(line["failed"], int) or not isinstance(line["correct"], bool):
        problems.append(f"{label}: failed/correct have the wrong type")
    names = [m["name"] for m in spec]
    if list(line["metrics"]) != names:
        problems.append(f"{label}: metrics {list(line['metrics'])} != {names}")
    for m in spec:
        got = line["metrics"].get(m["name"], {})
        value = got.get("value")
        if not (isinstance(value, float) or isinstance(value, int)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} value {value!r}")
        if got.get("unit") != m["unit"] or not m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
    return problems


def check_spans(tracer, label: str) -> list[str]:
    problems = []
    selfs = tracer.self_times()
    for idx in range(len(tracer)):
        par = tracer.parent[idx]
        start, end = tracer.start[idx], tracer.end[idx]
        if not start <= end:
            problems.append(f"{label}: span {idx} ends before it starts")
        if par != -1 and not 0 <= par < idx:
            problems.append(f"{label}: span {idx} has missing parent {par}")
        elif par != -1:
            if not (tracer.start[par] <= start and end <= tracer.end[par]):
                problems.append(f"{label}: span {idx} lies outside its parent {par}")
            if tracer.op[par] != tracer.op[idx]:
                problems.append(f"{label}: span {idx} and its parent belong to different operations")
        if not selfs[idx] >= 0.0:
            problems.append(f"{label}: span {idx} ({tracer.name_of(idx)}) self time {selfs[idx]!r}")
    if len(tracer) == 0:
        problems.append(f"{label}: no spans recorded")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if done.returncode == 0:
        problems.append("bare directory: exit code 0")
    if '"metrics"' in done.stdout:
        problems.append("bare directory: printed a result line")
    return problems


def main() -> int:
    run.import_wallscale()
    run.OUT_DIR.mkdir(exist_ok=True)
    wls = tiny_workloads()
    problems = []
    for name in run.WORKLOADS:
        t = time.perf_counter()
        outcome = run.measure(wls, name, 0, 0.0, time.perf_counter(), probes=0)
        problems += check_line(run.result_line(outcome, 0), run.SPEC["end_to_end"], f"{name} e2e")
        outcome = run.measure_traced(wls, name, 0, 0.0)
        problems += check_line(run.result_line(outcome, 1), run.SPEC["per_layer"], f"{name} traced")
        problems += check_spans(outcome["tracer"], f"{name} spans")
        print(f"{name}: {time.perf_counter() - t:.1f} s", flush=True)
    problems += check_bare_directory()
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
