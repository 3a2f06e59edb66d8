"""thpoly benchmark: one workload per process.

    python3 perfbench/run.py --workload minpoly-toeplitz --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is
a JSON object holding the end-to-end metrics, with ``--trace 1`` one
holding the per-layer metrics (see ``tracer.py``); the lines before it
repeat the metrics for reading, with the sample count and the machine.
Traced runs also write their spans to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# numpy reads these when it is first imported; one thread keeps the load of
# a run on one core of a small machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path.

    Returns False when the checkout holds no thpoly sources, so that an
    installed copy of the library is never measured in their place.
    """
    if not (SRC / "thpoly" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the workload's inputs and exit; the "
                             "untraced run times these cold set-ups")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not use_checkout_sources():
        print(f"perfbench: no thpoly sources under {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracer
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        harness.make_pool(workload, args.seed)
        return 0

    if args.trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_path = out_dir / f"spans-{workload.name}-seed{args.seed}.tsv"
        result = harness.run_traced(workload, args.seed, args.seconds, span_path)
        units = dict(tracer.LAYER_METRICS)
    else:
        result = harness.run(workload, args.seed, args.seconds)
        units = dict(harness.END_TO_END)

    env = harness.environment()
    print("env " + " ".join(f"{k}={v!r}" if k == "cpu" else f"{k}={v}"
                            for k, v in env.items()))
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"solves={result['samples']} inputs={result['inputs']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if args.trace:
        print(f"spans written to {span_path.relative_to(ROOT)}")
    else:
        print(f"wall: solve_s_p50 {result['solve_s_p50']:.6g} s, "
              f"reference_s_p50 {result['reference_s_p50']:.6g} s, "
              f"setup_wall_s {result['setup_wall_s']:.6g} s")
    for name, value in result["metrics"].items():
        note = f" ({result['samples']} samples)" if name.endswith("_p50") else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
