"""Command-line interface.

Human-readable output goes to stdout (CSV for hilbert and matrix); --out
writes the canonical JSON.  JSON output is byte-identical across runs with
the same inputs except for fields under "timing" and per-map "ms".  Every
map check runs through lefschetz.check_map: rank checks one map, and slp,
char-search and bench print and write slp_check's reports.  Exit codes: 0
the property or check holds, 1 it fails (slp, embed-verify, bench), 2 usage
or input error.  main builds only the parser of the command in argv[0]:
_COMMANDS gives its help line and handler, _add_flags its flags.  It
builds all of them only when argv[0] is no command (none, -h, an unknown
name), so help and errors still list every command.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from math import comb

from ._primes import primes_in_range
from .blockrec import decompose
from .embedding import EmbeddingSpec, transfer_slp, verify_kernel_dims, verify_socle_image
from .exactmat import (
    ExactMatrix,
    determinant,
    rank_mod_p,  # unused; perfbench/tests/test_tracing.py expects this binding
)
from .lefschetz import (
    LinearForm,
    build_matrix,
    char_search,
    check_map,
    slp_check,
)
from .quotient import AlgebraSpec, hilbert_vector


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _parse_prime_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"reversed prime range {text!r}: LO must not exceed HI")
    return lo, hi


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """command's flags, in the order its help lists them.

    One function rather than an adder per command: every import loads each
    function's code object, and seven more adders left about 87 more
    garbage-collected objects behind on every import of the CLI.
    """
    if command == "selftest":
        return
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--quadratic", type=int, metavar="N", help="square-free algebra on N variables")
    group.add_argument("--exponents", type=_parse_int_list, metavar="D1,D2,...", help="killed powers per variable")
    if command != "char-search":
        # --primes names the characteristics, so char-search takes no --char
        p.add_argument("--char", type=int, default=0, metavar="C", help="coefficient characteristic, 0 or a prime")
    if command not in ("hilbert", "embed-verify"):
        p.add_argument("--form", type=_parse_int_list, metavar="C1,C2,...", help="form coefficients (default: all ones)")
    if command == "matrix":
        p.add_argument("--i", type=int, required=True, help="source degree")
        p.add_argument("--t", type=int, required=True, help="power of the form")
    elif command == "rank":
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
    elif command == "slp":
        p.add_argument("--mode", choices=("middle", "full"), default="middle")
    elif command == "char-search":
        p.add_argument("--primes", type=_parse_prime_range, required=True, metavar="LO..HI")
    if command in ("rank", "slp"):
        p.add_argument("--method", choices=("auto", "dense"), default="auto")
    p.add_argument("--out", metavar="PATH", help="write machine output (JSON) to PATH")


def _spec_from_args(args) -> AlgebraSpec:
    char = getattr(args, "char", 0)
    if args.quadratic is not None:
        return AlgebraSpec.quadratic(args.quadratic, char)
    return AlgebraSpec(len(args.exponents), args.exponents, char)


def _form_from_args(args, n: int) -> LinearForm:
    if getattr(args, "form", None) is None:
        return LinearForm.ones(n)
    if len(args.form) != n:
        raise ValueError("form coefficient count does not match the variable count")
    return LinearForm(args.form)


def _emit(args, payload: dict) -> None:
    """Write payload as JSON to --out, if given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")


def _cmd_hilbert(args) -> int:
    spec = _spec_from_args(args)
    hv = hilbert_vector(spec)
    print(",".join(str(h) for h in hv))
    _emit(args, {"spec": spec.to_json_dict(), "h": list(hv)})
    return 0


def _cmd_matrix(args) -> int:
    spec = _spec_from_args(args)
    form = _form_from_args(args, spec.n)
    mm = build_matrix(spec, form, args.i, args.t)
    # every matrix is over ZZ or F_p, so its CSV is integers
    sys.stdout.write(mm.matrix.to_csv())
    payload = {
        "spec": spec.to_json_dict(),
        "form": form.to_json(),
        "i": args.i,
        "t": args.t,
        "matrix": mm.matrix.to_json_dict(),
    }
    _emit(args, payload)
    return 0


def _cmd_rank(args) -> int:
    spec = _spec_from_args(args)
    form = _form_from_args(args, spec.n)
    c = check_map(spec, form, args.i, args.t, args.method)
    print(
        f"rank {c.rank} of {c.rows}x{c.cols}"
        f" ({'maximal' if c.maximal else 'NOT maximal'}; {c.method}; {c.ms:.2f} ms)"
    )
    _emit(args, {"spec": spec.to_json_dict(), "form": form.to_json(), **c.to_json_dict()})
    return 0


def _cmd_slp(args) -> int:
    spec = _spec_from_args(args)
    form = _form_from_args(args, spec.n)
    report = slp_check(spec, form, mode=args.mode, method=args.method)
    for c in report.maps:
        mark = "ok " if c.maximal else "FAIL"
        # a middle map is square and mostly of full rank, and a paper-size
        # dimension has thousands of digits: convert each distinct value once
        rows = str(c.rows)
        cols = rows if c.cols == c.rows else str(c.cols)
        rank = rows if c.rank == c.rows else cols if c.rank == c.cols else str(c.rank)
        print(f"  {mark} i={c.i:<2d} t={c.t:<2d} {rows}x{cols} rank={rank} ({c.method}, {c.ms:.2f} ms)")
    print(f"SLP {'holds' if report.slp else 'fails'} for {spec.n} variables, characteristic {spec.characteristic}")
    _emit(args, report.to_json_dict())
    return 0 if report.slp else 1


def _cmd_char_search(args) -> int:
    spec = _spec_from_args(args)
    form = _form_from_args(args, spec.n)
    lo, hi = args.primes
    primes = primes_in_range(lo, hi)
    if not primes:
        raise ValueError(f"no prime in {lo}..{hi}")
    reports = char_search(spec, form, primes)
    for r in reports:
        if r.slp:
            print(f"p={r.spec.characteristic}: holds")
        else:
            failing = " ".join(f"(i={i},t={t})" for i, t in r.failures)
            print(f"p={r.spec.characteristic}: fails at {failing}")
    payload = {
        "spec": spec.to_json_dict(),
        "form": form.to_json(),
        "primes": [
            {"p": r.spec.characteristic, "slp": r.slp, "failing": [list(ft) for ft in r.failures]}
            for r in reports
        ],
    }
    _emit(args, payload)
    return 0


def _cmd_embed_verify(args) -> int:
    spec = _spec_from_args(args)
    es = EmbeddingSpec.from_spec(spec)
    start = time.perf_counter()
    # transfer_slp first: only it refuses for size, and it does so before the socle check expands anything
    transfer = transfer_slp(es)
    kernel = verify_kernel_dims(es)
    socle = verify_socle_image(es)
    ms = (time.perf_counter() - start) * 1000.0
    print(f"embedding into {es.m} square-free variables")
    print(f"socle scalar {socle.scalar} ({'non-zero' if socle.nonzero else 'zero'} in the field): {'ok' if socle.ok else 'MISMATCH'}")
    for d in kernel.degrees:
        mark = "ok " if d.ok else "FAIL"
        print(f"  {mark} degree {d.degree}: rank {d.rank} of {d.dim_target}x{d.dim_source}")
    print(f"slp direct={transfer.slp_direct} via-embedding={transfer.slp_via_embedding} agree={transfer.agree}")
    payload = {
        "m": es.m,
        "powers": list(es.powers),
        "source_exponents": list(es.source_spec.exponents),
        "characteristic": es.characteristic,
        "socle_scalar": str(socle.scalar),
        "socle_nonzero": socle.nonzero,
        "socle_ok": socle.ok,
        "degrees": [
            {"j": d.degree, "dim_source": d.dim_source, "rank": d.rank, "ok": d.ok}
            for d in kernel.degrees
        ],
        "slp_direct": transfer.slp_direct,
        "slp_via_embedding": transfer.slp_via_embedding,
        "agree": transfer.agree,
        "timing": {"total_ms": round(ms, 3)},
    }
    _emit(args, payload)
    ok = socle.ok and kernel.all_ok and transfer.agree
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    spec = _spec_from_args(args)
    form = _form_from_args(args, spec.n)
    dense = slp_check(spec, form, method="dense")
    auto = slp_check(spec, form)
    records = []
    disagreements = []
    for d, a in zip(dense.maps, auto.maps):
        for route, c in (("dense", d), ("auto", a)):
            records.append({"route": route, **c.to_json_dict()})
            print(
                f"n={spec.n} i={c.i} t={c.t} {c.rows}x{c.cols} {route:<5s}"
                f" rank={c.rank} peak_bits={c.peak_bits} {c.ms:.2f} ms"
            )
        if d.rank != a.rank:
            disagreements.append(f"(i={d.i}, t={d.t}) dense {d.rank}, auto {a.rank}")
    _emit(args, {"spec": spec.to_json_dict(), "form": form.to_json(), "records": records})
    if disagreements:
        print(f"error: routes disagree at {'; '.join(disagreements)}", file=sys.stderr)
        return 1
    print("dense and auto agree on every rank")
    return 0


def _cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    spec4 = AlgebraSpec.quadratic(4)
    mm = build_matrix(spec4, LinearForm.ones(4), 1, 2)
    known = ExactMatrix.from_rows([[2, 2, 2, 0], [2, 2, 0, 2], [2, 0, 2, 2], [0, 2, 2, 2]])
    checks.append(("four-variable power-two matrix", mm.matrix == known))
    checks.append(("its determinant is -48", determinant(mm.matrix) == -48))

    ok = True
    for n in range(1, 7):
        qs = AlgebraSpec.quadratic(n)
        ok = ok and slp_check(qs, LinearForm.ones(n), method="dense").slp
        ok = ok and slp_check(qs, LinearForm.ones(n)).slp
    checks.append(("square-free sweep holds through six variables", ok))

    # (1, 2) is off the middle of quadratic(6): the paper's hypotheses decide it too
    auto, dense = (check_map(AlgebraSpec.quadratic(6), LinearForm.ones(6), 1, 2, m) for m in ("auto", "dense"))
    ok = auto.method == "block-recursive" and auto.rank == dense.rank
    checks.append(("a non-middle map over Q takes the proof route", ok))

    # over F_5 the recursion runs for n < 5 and falls back to the Jordan-type fold for n >= 5
    ok = True
    for n in range(1, 7):
        qs = AlgebraSpec.quadratic(n, 5)
        ranks = [
            [c.rank for c in slp_check(qs, LinearForm.ones(n), method=m).maps] for m in ("dense", "auto")
        ]
        ok = ok and ranks[0] == ranks[1]
    checks.append(("auto and dense middle ranks agree over F_5 through six variables", ok))

    char2 = slp_check(AlgebraSpec.quadratic(3, 2), LinearForm.ones(3))
    checks.append(("three variables fail in characteristic two", not char2.slp))

    reports = char_search(AlgebraSpec.quadratic(4), LinearForm.ones(4), (2, 3, 5, 7, 11, 13))
    failing = {r.spec.characteristic for r in reports if not r.slp}
    checks.append(("four-variable failures are exactly {2, 3}", failing == {2, 3}))

    es = EmbeddingSpec.from_powers((2, 2))
    socle = verify_socle_image(es)
    kern = verify_kernel_dims(es)
    trans = transfer_slp(es)
    checks.append(
        ("embedding of the (2,2) algebra verifies", socle.ok and socle.scalar == 4 and kern.all_ok and trans.agree)
    )

    # zero coefficients on x5, x6 make A = B (x) C with l acting on B alone, so
    # the dense maps are permuted direct sums and rank_fraction_free splits them
    deficit = slp_check(AlgebraSpec.quadratic(6), LinearForm((1, 1, 1, 1, 0, 0)), method="dense")
    closed = [
        sum(comb(2, j) * min(comb(4, c.i - j), comb(4, c.i - j + c.t)) for j in range(min(c.i, 2) + 1))
        for c in deficit.maps
    ]
    checks.append(("a deficit map ranks as the sum of its blocks", [c.rank for c in deficit.maps] == closed))

    dec = decompose(spec4, LinearForm.ones(4), 1, 2)
    checks.append(("block decomposition reassembles the matrix", dec.assemble() == mm.matrix))

    all_ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}: {name}")
        all_ok = all_ok and passed
    return 0 if all_ok else 1


# name -> (help line, handler), in the order help lists them
_COMMANDS = {
    "hilbert": ("graded dimensions of the algebra", _cmd_hilbert),
    "matrix": ("one multiplication matrix", _cmd_matrix),
    "rank": ("rank of one multiplication matrix", _cmd_rank),
    "slp": ("strong Lefschetz verdict (exit 0 holds, 1 fails)", _cmd_slp),
    "char-search": ("probe the same form over a range of prime fields", _cmd_char_search),
    "embed-verify": ("verify the quadratic embedding of the algebra", _cmd_embed_verify),
    "bench": ("compare the dense and auto routes on the middle maps", _cmd_bench),
    "selftest": ("quick internal checks (exit 0 all pass)", _cmd_selftest),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with command's subparser alone, or with every subparser if command is not a command.

    The subparsers keep the full choice list as their metavar, so an error the
    top-level parser reports after a command ran (unrecognized arguments)
    prints the same usage either way.
    """
    parser = argparse.ArgumentParser(
        prog="slpkit",
        description="multiplication matrices and strong Lefschetz verdicts for monomial complete intersections",
    )
    one = command in _COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}" if one else None
    )
    for name in (command,) if one else _COMMANDS:
        _add_flags(sub.add_parser(name, help=_COMMANDS[name][0]), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    # a paper-size dimension passes Python's int-to-str limit (C(15000, 7500)
    # has 4514 digits): lift it for the command alone, so that an in-process
    # caller keeps its own.  Python 3.10 before 3.10.7 has no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command][1](args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
