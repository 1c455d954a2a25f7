"""Benchmark of wallscale: three seeded, closed-loop, single-client workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  The benchmark imports wallscale from this
checkout's src/, makes every input from --seed, runs one operation at a
time (the next starts when the previous returns) and checks each result.
It prints a readable report and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 measures the
end-to-end metrics for --seconds seconds (at least MIN_OPS operations);
--trace 1 is the separate traced run: a fixed number of operations, each
run untraced and then traced, giving the per-layer metrics.  Metric names
and units come from BENCHMARK.json.  Records and spans go to perfbench/out/.
"""

import os
import time

STARTED = time.perf_counter()
# One BLAS/OpenMP thread for this process and the set-up probes it starts;
# this must happen before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

MIN_OPS = 11  # op_tail_s needs ten samples beyond it
# The speed of a shared host drifts by up to 20% over tens of seconds, with
# other tenants on the same cores, and that drift would swamp the latency
# metrics across runs.  A fixed kernel is timed before every operation and
# latencies are reported in reference-host seconds: raw seconds times
# CALIBRATION_REF_S over the run's median calibration time (raw figures are
# kept in the run record).
CALIBRATION_REF_S = 0.010
TAIL_BEYOND = 10
SETUP_PROBES = 2  # set-ups in fresh processes, besides this process's own
# ref_err.* cover the first operations of each kind made from the seed (at
# most MIN_OPS, so a workload's own timed loop always holds them); a workload
# of another kind runs them after its timed loop, untimed.
REFERENCE_OPS = {"descent": 2, "crosscheck": 8}


def import_wallscale() -> float:
    """Import wallscale and its CLI from this checkout; return the seconds."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import wallscale
    import wallscale.cli  # noqa: F401

    elapsed = time.perf_counter() - t
    where = Path(wallscale.__file__).resolve().parent
    if where != (src / "wallscale").resolve():
        raise ImportError(f"wallscale was imported from {where}, not from {src}")
    return elapsed


def calibrate() -> float:
    """Seconds a fixed Python and numpy kernel takes (about CALIBRATION_REF_S)."""
    import math

    import numpy as np

    t = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += math.sin(i * 1e-3) / (1.0 + i)
    a = np.arange(4096.0)
    for _ in range(300):
        a = np.sqrt(a * a + acc)
    return time.perf_counter() - t


def attempt(wl, inp):
    """Run one operation; return (result or None, seconds, problems)."""
    from wallscale import WallscaleError

    t = time.perf_counter()
    try:
        res = wl.run(inp)
    except WallscaleError as exc:
        return None, time.perf_counter() - t, [f"{type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t
    return res, seconds, wl.check(inp, res)


def prepare(wl, seed: int):
    """Make operation 0's input and run the untimed warm-up operation.

    Returns (input, warm-up result or None)."""
    inp = wl.make_input(seed, 0)
    warm, _, _ = attempt(wl, inp)
    return inp, warm


def note(failures: dict, key, msg: str) -> None:
    failures[key] = f"{failures[key]}; {msg}" if key in failures else msg


def same_result(wl, a, b) -> bool:
    if a is None or b is None:
        return a is b
    return wl.fingerprint(a) == wl.fingerprint(b)


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh benchmark process (setup_probe.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def reference_errors(wls: dict, name: str, seed: int, inputs: list, results: list):
    """Largest ref_err.* over the first REFERENCE_OPS operations of each kind."""
    errs: dict[str, float] = {}
    problems = []
    for kind, count in REFERENCE_OPS.items():
        kw = wls[kind]
        for j in range(count):
            if kind == name:
                inp, res = inputs[j], results[j]
            else:
                inp = kw.make_input(seed, j)
                res, _, probs = attempt(kw, inp)
                problems += [f"{kind} reference op {j}: {p}" for p in probs]
            if res is not None:
                for metric, value in kw.ref_errors(inp, res).items():
                    errs[metric] = max(errs.get(metric, 0.0), value)
    return errs, problems


def measure(wls: dict, name: str, seed: int, seconds: float, started: float, probes: int) -> dict:
    """The end-to-end run: set-up, timed closed loop, checks, references."""
    wl = wls[name]
    inp0, warm = prepare(wl, seed)
    setup_here = time.perf_counter() - started
    inputs, results, latencies, calibrations, failures = [], [], [], [], {}
    t0 = time.perf_counter()
    while len(latencies) < MIN_OPS or time.perf_counter() - t0 < seconds:
        i = len(latencies)
        inp = inp0 if i == 0 else wl.make_input(seed, i)
        calibrations.append(calibrate())
        res, dt, problems = attempt(wl, inp)
        inputs.append(inp)
        results.append(res)
        latencies.append(dt)
        if problems:
            failures[i] = "; ".join(problems)
    elapsed = time.perf_counter() - t0 - sum(calibrations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not same_result(wl, warm, results[0]):
        note(failures, 0, "repeat of operation 0 differs from the warm-up")
    for i, msg in wl.check_run(inputs, results).items():
        note(failures, i, msg)
    wl.finish(results, OUT_DIR, seed)
    ref_errs, ref_problems = reference_errors(wls, name, seed, inputs, results)
    setup_samples = [setup_here] + [probe_setup(name, seed) for _ in range(probes)]

    n = len(latencies)
    speed = CALIBRATION_REF_S / statistics.median(calibrations)
    ranked = sorted(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n / elapsed / speed,
        "op_p50_s": statistics.median(latencies) * speed,
        "op_tail_s": ranked[n - 1 - TAIL_BEYOND] * speed,
        "peak_rss_mb": peak_rss_mb,
        **ref_errs,
    }
    return {
        "metrics": metrics,
        "attempted": n,
        "failures": {str(i): m for i, m in sorted(failures.items())},
        "reference_problems": ref_problems,
        "op_tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "raw": {
            "ops_per_s": n / elapsed,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": ranked[n - 1 - TAIL_BEYOND],
        },
        "speed_factor": speed,
        "latencies_s": latencies,
        "calibrations_s": calibrations,
        "setup_samples_s": setup_samples,
    }


def measure_traced(wls: dict, name: str, seed: int, import_s: float) -> dict:
    """The traced run: each of trace_ops operations untraced, then traced."""
    from tracing import Tracer, layer_metrics

    wl = wls[name]
    inp0, warm = prepare(wl, seed)
    tracer = Tracer()
    inputs, results, plain_s, traced_s, failures = [], [], [], [], {}
    for i in range(wl.trace_ops):
        inp = inp0 if i == 0 else wl.make_input(seed, i)
        plain, dt_plain, problems = attempt(wl, inp)
        for msg in problems:
            note(failures, f"{i}", msg)
        tracer.current_op = i
        with tracer.patched():
            res, dt, problems = attempt(wl, inp)
        tracer.current_op = -1
        if not same_result(wl, plain, res):
            problems.append("traced result differs from the untraced one")
        for msg in problems:
            note(failures, f"{i}-traced", msg)
        inputs.append(inp)
        results.append(res)
        plain_s.append(dt_plain)
        traced_s.append(dt)
    if not same_result(wl, warm, results[0]):
        note(failures, "0", "repeat of operation 0 differs from the warm-up")
    for i, msg in wl.check_run(inputs, results).items():
        note(failures, f"{i}-traced", msg)
    with tracer.patched():
        wl.finish(results, OUT_DIR, seed)

    metrics = layer_metrics(tracer, traced_s)
    metrics["setup.import_s"] = import_s
    metrics["trace.overhead"] = sum(traced_s) / sum(plain_s)
    tracer.write(OUT_DIR / f"{name}-seed{seed}-spans.csv.gz")
    return {
        "metrics": metrics,
        "attempted": 2 * len(traced_s),
        "failures": failures,
        "reference_problems": [],
        "spans": len(tracer),
        "tracer": tracer,
    }


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def result_line(outcome: dict, trace: int) -> dict:
    """The final JSON object; checks the metric set against BENCHMARK.json."""
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = outcome["metrics"]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing or len(metrics) != len(spec):
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}")
    failed = len(outcome["failures"])
    return {
        "correct": failed == 0 and not outcome["reference_problems"],
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        import_s = import_wallscale()
    except ImportError as exc:
        print(f"cannot import wallscale from this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads

    wls = workloads.default_workloads()
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        outcome = measure_traced(wls, args.workload, args.seed, import_s)
        del outcome["tracer"]
    else:
        outcome = measure(wls, args.workload, args.seed, args.seconds, STARTED, SETUP_PROBES)
    line = result_line(outcome, args.trace)

    env = environment()
    print(f"wallscale benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for key, m in line["metrics"].items():
        print(f"  {key:<44} {m['value']:<24.10g} {m['unit']}")
    n = line["attempted"]
    print(f"  {'fail_frac':<44} {line['failed'] / n:<24.10g} 1  ({line['failed']} of {n} operations)")
    if not args.trace:
        print(f"  op_tail_s is p{outcome['op_tail_percentile']:.1f} of {n} samples "
              f"({TAIL_BEYOND} beyond); setup_s is the median of "
              f"{len(outcome['setup_samples_s'])} set-ups")
        raw = ", ".join(f"{k}={v:.6g}" for k, v in outcome["raw"].items())
        print(f"  latencies in reference-host seconds (speed factor "
              f"{outcome['speed_factor']:.4f}); raw wall-clock: {raw}")
    for key, msg in {**outcome["failures"], **dict(enumerate(outcome["reference_problems"]))}.items():
        print(f"  FAILED {key}: {msg}", file=sys.stderr)
    details = {k: v for k, v in outcome.items() if k != "metrics"}
    record = {"args": vars(args), "environment": env, "result": line, **details}
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
