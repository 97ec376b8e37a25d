"""slpkit benchmark: four workloads, cold passes, exact oracles, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; slpkit is imported from ./src, nothing is
installed or built.  Workloads (inputs come from --seed only):

  sqfree-q    slp_check, default settings, on quadratic(12) and quadratic(13)
              over Q, coefficients in +-{1,2,3}: matrix build and conversion.
  deficit-q   slp_check on quadratic(11) (+-1, two zero coefficients) and
              quadratic(10) (+-{1,2,3}, one zero): real rank deficits, so
              fraction-free elimination dominates.
  prime-scan  `slpkit char-search --quadratic 11 --form=<+-1> --primes 2..31`
              in-process: the F_p path, modular elimination and the CLI.
  embed-m8    verify_socle_image, verify_kernel_dims and transfer_slp on all
              128 compositions of 8 in seeded order: many small maps.

Every pass runs in a fresh interpreter (worker.py), so no lru_cache filled
by an earlier pass is reused and every CLI call starts cold.  Each case's
verdicts are checked against closed_forms.py, which does not use slpkit.
Passes repeat until --seconds have gone by (at least three; with --trace 1
at least two traced and two untraced, in ABBA order) and the metrics are
medians over passes:

  --trace 0  wall_s (one pass, all verdicts), setup_s (interpreter start to
             the first timed call, median over extra set-up-only starts and
             the passes), peak_rss_mb (getrusage of the pass process),
             case_p50_ms and case_p90_ms (percentiles over the cases of a
             pass of each case's median latency across passes; only
             embed-m8, with 128 cases, has ten or more beyond p90; the
             others have 1 or 2 cases, and there the two figures bracket
             their per-case latencies).
  --trace 1  the per-layer metrics of tracing.per_layer_metrics, from passes
             run under tracing.Tracer; trace.overhead_s is the traced minus
             the untraced median wall_s of the same run.

The last line of stdout is one JSON object with keys correct, attempted,
failed (cases, summed over passes) and metrics.  The run also writes
perfbench/results/BENCH_<workload>_seed<N>_trace<T>.json with the machine,
versions, commit, generated inputs and every pass, so it can be replayed.
A pass that crashes, or a traced pass in which a layer the workload is
chosen for records no span, ends the run with a non-zero exit and no result.

The harness's own tests: PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("sqfree-q", "deficit-q", "prime-scan", "embed-m8")

SETUP_PROBES = 5  # set-up-only interpreter starts per run, besides the passes
DEADLINE_S = 170.0  # the whole run, well inside the 180 s limit

sys.path.insert(0, HERE)

from tracing import per_layer_metrics  # noqa: E402


class PassFailed(RuntimeError):
    pass


def _spawn(args, kind: str, workdir: str, deadline: float) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--kind", kind,
        "--size", args.size,
        "--workdir", workdir,
    ]
    env = dict(os.environ, BENCH_T0=repr(time.monotonic()))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{kind} pass did not finish before the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise PassFailed(f"{kind} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _case_percentiles(case_values: list[list[float]]) -> tuple[float, float]:
    """p50 and p90 over cases of each case's median across passes."""
    cases = [statistics.median(v) for v in zip(*case_values)]
    if len(cases) == 1:
        return cases[0], cases[0]
    q = statistics.quantiles(cases, n=100, method="inclusive")
    return q[49], q[89]


def end_to_end_metrics(setup_runs: list[dict], passes: list[dict]) -> dict:
    p50, p90 = _case_percentiles([p["case_ms"] for p in passes])
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setup_runs + passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
        "case_p50_ms": (p50, "ms"),
        "case_p90_ms": (p90, "ms"),
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
    each = [
        per_layer_metrics(p["spans"], p["graded_basis_misses"], p["wall_s"], p["covered_s"], overhead)
        for p in traced
    ]
    return {name: (statistics.median(m[name][0] for m in each), unit) for name, (_v, unit) in each[0].items()}


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def _code() -> dict:
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "slpkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _exit_on_sigterm(signum, frame):
    # raised inside subprocess.run, which then kills and reaps the pass
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the harness's own tests")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "slpkit", "__init__.py")):
        print(f"error: no slpkit sources under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS)
    # traced and untraced passes in ABBA order, so a drift in machine speed
    # over the run does not bias trace.overhead_s
    kinds = ("traced", "plain", "plain", "traced") if args.trace else ("plain",)
    least = 2 if args.trace else 3
    passes: dict[str, list[dict]] = {kind: [] for kind in kinds}
    try:
        _spawn(args, "setup", workdir, deadline)  # fills bytecode and file caches; not counted
        probes = [_spawn(args, "setup", workdir, deadline) for _ in range(SETUP_PROBES)]
        k = 0
        while any(len(p) < least for p in passes.values()) or time.monotonic() - start < args.seconds:
            kind = kinds[k % len(kinds)]
            passes[kind].append(_spawn(args, kind, workdir, deadline))
            k += 1
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = passes["plain"]
    every = plain + passes.get("traced", [])
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    e2e = end_to_end_metrics(probes, plain)
    layers = layer_metrics(plain, passes["traced"]) if args.trace else {}
    reported = layers if args.trace else e2e

    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"{name:44s} {value:.6g} {unit}")
    print(f"{'fail_frac':44s} {failed / attempted:.6g} ({failed} of {attempted} cases)")
    print(f"passes: {len(plain)} untraced, {len(passes.get('traced', []))} traced; "
          f"cases per pass: {len(plain[0]['case_ms'])}; set-up samples: {len(probes) + len(plain)}")
    for p in every:
        for msg in p["failures"]:
            print(f"MISMATCH {msg}")

    suffix = "" if args.size == "full" else f"_{args.size}"
    path = os.path.join(RESULTS, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "size": args.size,
                "seconds": args.seconds,
                "trace": args.trace,
                "machine": _machine(),
                "code": _code(),
                "inputs": probes[0]["inputs"],
                "fail_frac": failed / attempted,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in {**e2e, **layers}.items()},
                "setup_probes": [{k: v for k, v in p.items() if k != "inputs"} for p in probes],
                "passes": every,
            },
            fh,
            indent=1,
        )
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
