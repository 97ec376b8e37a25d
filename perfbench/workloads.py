"""The four workloads: seeded inputs, one pass of library calls, oracle checks.

A pass is a list of cases.  Each case is one call into slpkit that delivers
verdicts (timed by the caller) and a check that compares those verdicts with
closed_forms (not timed).  The library sees only the generated inputs.

Library functions are looked up on their modules at call time, so a tracer
installed after import sees every call.
"""
from __future__ import annotations

import json
import os
import random

import slpkit
import slpkit.cli

import closed_forms as cf

WORKLOADS = ("sqfree-q", "deficit-q", "prime-scan", "embed-m8")

# "tiny" shrinks every workload for the harness's own smoke tests.
SIZES = {
    "full": {
        "sqfree-q": (12, 13),
        "deficit-q": ((11, 2, (1,)), (10, 1, (1, 2, 3))),
        "prime-scan": (11, 2, 31),
        "embed-m8": 8,
    },
    "tiny": {
        "sqfree-q": (5, 6),
        "deficit-q": ((6, 2, (1,)), (5, 1, (1, 2, 3))),
        "prime-scan": (5, 2, 7),
        "embed-m8": 4,
    },
}

# Spans each workload was chosen to exercise; a traced pass in which one of
# them records no call fails, so a rename cannot silently empty a layer.
REQUIRED_SPANS = {
    "sqfree-q": (
        "lefschetz.slp_check",
        "blockrec.recursive_middle_rank",
        "lefschetz.build_matrix",
        "exactmat.from_rows",
        "quotient.graded_basis",
        "quotient.basis_positions",
        "exactmat.certified_rank",
        "exactmat.rank_mod_p",
    ),
    "deficit-q": (
        "lefschetz.slp_check",
        "blockrec.recursive_middle_rank",
        "lefschetz.build_matrix",
        "exactmat.from_rows",
        "exactmat.certified_rank",
        "exactmat.rank_fraction_free",
    ),
    "prime-scan": (
        "cli.main",
        "lefschetz.char_search",
        "lefschetz.slp_check",
        "lefschetz.build_matrix",
        "exactmat.from_rows",
        "exactmat.rank_mod_p",
    ),
    "embed-m8": (
        "embedding.verify_socle_image",
        "embedding.verify_kernel_dims",
        "embedding.transfer_slp",
        "embedding.phi_matrix",
        "quotient.multiply",
        "quotient.graded_basis",
        "exactmat.mat_mul",
        "exactmat.certified_rank",
        "lefschetz.build_matrix",
        "lefschetz.slp_check",
    ),
}


def missing_spans(workload: str, spans) -> list[str]:
    return [name for name in REQUIRED_SPANS[workload] if name not in spans]


def _form(rng: random.Random, n: int, magnitudes, zeros: int) -> tuple[list[int], list[int]]:
    coeffs = [rng.choice(magnitudes) * rng.choice((-1, 1)) for _ in range(n)]
    positions = sorted(rng.sample(range(n), zeros))
    for k in positions:
        coeffs[k] = 0
    return coeffs, positions


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Everything the pass feeds the library, as JSON data; same seed, same inputs."""
    rng = random.Random(f"{workload}/{seed}")
    spec = SIZES[size][workload]
    if workload == "sqfree-q":
        return {"cases": [{"n": n, "form": _form(rng, n, (1, 2, 3), 0)[0]} for n in spec]}
    if workload == "deficit-q":
        cases = []
        for n, k, magnitudes in spec:
            form, zeros = _form(rng, n, magnitudes, k)
            cases.append({"n": n, "form": form, "zeros": zeros})
        return {"cases": cases}
    if workload == "prime-scan":
        n, lo, hi = spec
        # +-1 only: never zero in any characteristic, so every prime gets a verdict
        return {"n": n, "form": _form(rng, n, (1,), 0)[0], "lo": lo, "hi": hi}
    if workload == "embed-m8":
        order = cf.compositions(spec)
        rng.shuffle(order)
        return {"m": spec, "cases": [list(c) for c in order]}
    raise ValueError(f"unknown workload {workload!r}")


def _maps(report) -> list[tuple]:
    return [(c.i, c.t, c.rank, c.maximal) for c in report.maps]


def _slp_case(n: int, form: list[int]):
    def call():
        return slpkit.slp_check(slpkit.AlgebraSpec.quadratic(n), slpkit.LinearForm(tuple(form)))

    return call


def _char_scan_case(inp: dict, workdir: str):
    out = os.path.join(workdir, "char-search.json")
    argv = [
        "char-search",
        "--quadratic", str(inp["n"]),
        # "=" keeps argparse from reading a leading "-1" as a flag
        "--form=" + ",".join(str(c) for c in inp["form"]),
        "--primes", f"{inp['lo']}..{inp['hi']}",
        "--out", out,
    ]

    def call():
        return slpkit.cli.main(argv)

    def check(rc):
        if rc != 0:
            return [f"char-search exited {rc}"]
        with open(out) as fh:
            payload = json.load(fh)
        probes = [(e["p"], e["slp"], e["failing"]) for e in payload["primes"]]
        return cf.check_char_scan(inp["n"], inp["lo"], inp["hi"], probes)

    return call, check


def _embedding_case(powers: list[int]):
    def call():
        es = slpkit.EmbeddingSpec.from_powers(tuple(powers))
        return slpkit.verify_socle_image(es), slpkit.verify_kernel_dims(es), slpkit.transfer_slp(es)

    def check(result):
        socle, kernel, transfer = result
        return cf.check_embedding(
            powers,
            (socle.scalar, socle.ok, socle.nonzero),
            [(d.degree, d.dim_source, d.dim_target, d.rank, d.ok) for d in kernel.degrees],
            _maps(transfer.direct),
            transfer.slp_direct,
            [(e.source_degree, e.power, e.dim_source, e.rank, e.ok) for e in transfer.embedded],
            transfer.slp_via_embedding,
        )

    return call, check


def cases(workload: str, inputs: dict, workdir: str) -> list[tuple[str, object, object]]:
    """(label, call, check) per case; check(call()) lists oracle mismatches."""
    if workload == "sqfree-q":
        return [
            (f"n={c['n']}", _slp_case(c["n"], c["form"]),
             lambda r, n=c["n"]: cf.check_squarefree_q(n, _maps(r), r.slp))
            for c in inputs["cases"]
        ]
    if workload == "deficit-q":
        return [
            (f"n={c['n']} zeros={c['zeros']}", _slp_case(c["n"], c["form"]),
             lambda r, n=c["n"], k=len(c["zeros"]): cf.check_deficit_q(n, k, _maps(r), r.slp))
            for c in inputs["cases"]
        ]
    if workload == "prime-scan":
        return [(f"n={inputs['n']} primes {inputs['lo']}..{inputs['hi']}", *_char_scan_case(inputs, workdir))]
    if workload == "embed-m8":
        return [(str(tuple(p)), *_embedding_case(p)) for p in inputs["cases"]]
    raise ValueError(f"unknown workload {workload!r}")
