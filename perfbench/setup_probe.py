"""Time one benchmark set-up in a fresh process and print {"setup_s": ...}.

run.py starts this a few times per end-to-end run and reports the median of
those set-ups and its own.  A set-up is what precedes the first timed
operation: importing wallscale and wallscale.cli, making the inputs and one
untimed warm-up operation.

    python3 perfbench/setup_probe.py --workload sweep --seed 1
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import run  # noqa: E402  (sets the thread environment before numpy loads)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    run.import_wallscale()
    import workloads

    wl = workloads.default_workloads()[args.workload]
    run.prepare(wl, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))


if __name__ == "__main__":
    main()
