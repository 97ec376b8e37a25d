"""One benchmark pass in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --kind {setup,plain,traced}
        --workdir DIR [--size full|tiny]

The parent puts the monotonic clock reading taken just before it started
this process in BENCH_T0, so setup_s covers interpreter start, `import
slpkit` and input generation, up to the first timed call.  Kind "setup"
stops there.  The result is one JSON object on the last line of stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import slpkit  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run_pass(workload: str, inputs: dict, workdir: str) -> dict:
    case_s, failures, failed = [], [], 0
    for label, call, check in workloads.cases(workload, inputs, workdir):
        start = time.perf_counter()
        try:
            result = call()
        except Exception:
            errors = [f"raised\n{traceback.format_exc()}"]
        else:
            errors = None
        case_s.append(time.perf_counter() - start)
        if errors is None:
            errors = check(result)
        failed += bool(errors)
        failures += [f"{label}: {msg}" for msg in errors]
    return {
        "wall_s": sum(case_s),
        "case_ms": [s * 1000.0 for s in case_s],
        "attempted": len(case_s),
        "failed": failed,
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    if not os.path.abspath(slpkit.__file__).startswith(SRC + os.sep):
        print(f"slpkit imported from {slpkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - float(os.environ["BENCH_T0"])
    record = {"kind": args.kind, "setup_s": setup_s}
    if args.kind == "setup":
        record["inputs"] = inputs
    else:
        tracer = None
        if args.kind == "traced":
            tracer = Tracer()
            tracer.install()
        record.update(_run_pass(args.workload, inputs, args.workdir))
        if tracer is not None:
            tracer.uninstall()
            record["spans"] = {name: st.to_json() for name, st in tracer.stats.items() if st.calls}
            record["covered_s"] = tracer.covered_s
            record["graded_basis_misses"] = tracer.graded_basis_misses()
            missing = workloads.missing_spans(args.workload, record["spans"])
            if missing:
                print(f"no span recorded for {', '.join(missing)}", file=sys.stderr)
                return 3
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
