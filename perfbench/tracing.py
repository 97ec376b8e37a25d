"""Per-layer spans recorded from outside slpkit.

Tracer.install() replaces every public function of the traced modules (the
layers) with a timing wrapper, at every module of the package that binds the
function's name: `from .lefschetz import build_matrix` in blockrec, embedding
and cli gives each of them its own reference, and each is patched, so calls
through any of them are seen.  ExactMatrix.from_rows, the conversion into
the matrix type, is wrapped on the class.

Spans are aggregated as they close, on a stack: a span's self time is its
duration minus the time its child spans (and the wrappers' own book-keeping
inside it) cover.  Nothing is written until the pass ends.
"""
from __future__ import annotations

import importlib
import sys
import time

LAYERS = ("quotient", "lefschetz", "exactmat", "blockrec", "embedding", "cli")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "depth", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.self_s = 0.0
        self.depth = 0
        self.counters: dict[str, int] = {}

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s, **self.counters}


def _add(counters: dict, key: str, value: int) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_build(c, args, kwargs, mm):
    entries = mm.matrix.entries
    _add(c, "cells", len(entries))
    _add(c, "nnz", len(entries) - entries.count(0))


def _count_cells(c, args, kwargs, result):
    m = args[0]
    _add(c, "cells", m.rows * m.cols)


def _count_fraction_free(c, args, kwargs, rr):
    _count_cells(c, args, kwargs, rr)
    bits = abs(rr.pivot_minor_det).bit_length() if rr.pivot_minor_det else 0
    c["det_bits"] = max(c.get("det_bits", 0), bits)


def _count_certified(c, args, kwargs, rr):
    _add(c, "fallbacks", int(rr.method == "fraction-free"))


def _count_mat_mul(c, args, kwargs, result):
    a, b = args[0], args[1]
    _add(c, "madds", a.rows * a.cols * b.cols)


def _count_recursive(c, args, kwargs, rr):
    _add(c, "fallbacks", int(bool(rr.notes)))


def _count_slp(c, args, kwargs, report):
    _add(c, "maps", len(report.maps))


COUNTERS = {
    "lefschetz.build_matrix": _count_build,
    "exactmat.rank_fraction_free": _count_fraction_free,
    "exactmat.rank_mod_p": _count_cells,
    "exactmat.certified_rank": _count_certified,
    "exactmat.mat_mul": _count_mat_mul,
    "blockrec.recursive_middle_rank": _count_recursive,
    "lefschetz.slp_check": _count_slp,
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


class Tracer:
    """Install, run the pass, uninstall; then read stats, covered_s and graded_basis_misses()."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.covered_s = 0.0  # time inside top-level spans, book-keeping included
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._graded_basis = None
        self._misses_at_install = 0

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, SpanStats())
        count = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            st.depth += 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                st.depth -= 1
                dur = end - start
                st.calls += 1
                st.self_s += dur - child[0]
                if not st.depth:
                    st.total_s += dur
                if count is not None and result is not None:
                    count(st.counters, args, kwargs, result)
                spent = clock() - start
                if stack:
                    stack[-1][0] += spent
                else:
                    tracer.covered_s += spent

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self._graded_basis = importlib.import_module("slpkit.quotient").graded_basis
        self._misses_at_install = self._graded_basis.cache_info().misses
        package = [m for name, m in list(sys.modules.items()) if name == "slpkit" or name.startswith("slpkit.")]
        for layer in LAYERS:
            module = importlib.import_module(f"slpkit.{layer}")
            for attr, fn in list(_public_functions(module)):
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in package:
                    for key in [k for k, v in vars(owner).items() if v is fn]:
                        self._patch(owner, key, wrapper)
        matrix_cls = importlib.import_module("slpkit.exactmat").ExactMatrix
        from_rows = matrix_cls.__dict__["from_rows"].__func__
        self._patch(matrix_cls, "from_rows", classmethod(self._wrap("exactmat.from_rows", from_rows)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def graded_basis_misses(self) -> int:
        return self._graded_basis.cache_info().misses - self._misses_at_install


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: dict, misses: int, wall_s: float, covered_s: float, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}.

    spans maps span name to SpanStats.to_json(); overhead_s is the traced
    minus the untraced wall time of the same run.  The end-to-end metric
    each group should move, and on which workloads:

      build_matrix.*, from_rows.*      wall_s, peak_rss_mb: most of sqfree-q
                                       and prime-scan, about half of
                                       embed-m8, little of deficit-q
      graded_basis.*, basis_positions  wall_s, setup_s: sqfree-q, embed-m8
      rank_fraction_free.*,            wall_s: deficit-q (no fraction-free
      certified_rank.*                 calls on sqfree-q or prime-scan)
      rank_mod_p.*                     wall_s: prime-scan, sqfree-q
      recursive_middle_rank.*,         wall_s: sqfree-q (structured path),
      structured_ratio                 deficit-q (fallback); not called on
                                       prime-scan or embed-m8
      multiply, phi_matrix, mat_mul,   wall_s, case_p90_ms: embed-m8 only
      verify_*, transfer_slp,
      slp_check.maps
      cli.main.*                       wall_s: prime-scan, where its self
                                       time should stay near 0
      <layer>.self_s                   the split of a pass over the layers
      trace.*                          none: tracing cost and the share of
                                       a traced pass no span covers
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return {**empty, **spans.get(name, {})}

    build = span("lefschetz.build_matrix")
    from_rows = span("exactmat.from_rows")
    ff = span("exactmat.rank_fraction_free")
    cert = span("exactmat.certified_rank")
    modp = span("exactmat.rank_mod_p")
    rec = span("blockrec.recursive_middle_rank")
    mul = span("quotient.multiply")
    phi = span("embedding.phi_matrix")
    mat_mul = span("exactmat.mat_mul")
    cli = span("cli.main")
    out = {
        "lefschetz.build_matrix.calls": (build["calls"], "count"),
        "lefschetz.build_matrix.self_s": (build["self_s"], "s"),
        "lefschetz.build_matrix.cells": (build.get("cells", 0), "count"),
        "lefschetz.build_matrix.nnz": (build.get("nnz", 0), "count"),
        "exactmat.from_rows.calls": (from_rows["calls"], "count"),
        "exactmat.from_rows.s": (from_rows["total_s"], "s"),
        "quotient.graded_basis.s": (span("quotient.graded_basis")["total_s"], "s"),
        "quotient.graded_basis.misses": (misses, "count"),
        "quotient.basis_positions.s": (span("quotient.basis_positions")["total_s"], "s"),
        "exactmat.rank_fraction_free.calls": (ff["calls"], "count"),
        "exactmat.rank_fraction_free.s": (ff["total_s"], "s"),
        "exactmat.rank_fraction_free.cells": (ff.get("cells", 0), "count"),
        "exactmat.rank_fraction_free.det_bits": (ff.get("det_bits", 0), "bits"),
        "exactmat.certified_rank.calls": (cert["calls"], "count"),
        "exactmat.certified_rank.fallbacks": (cert.get("fallbacks", 0), "count"),
        "exactmat.certified_rank.probe_hit_ratio": (
            _ratio(cert["calls"] - cert.get("fallbacks", 0), cert["calls"]),
            "ratio",
        ),
        "exactmat.rank_mod_p.calls": (modp["calls"], "count"),
        "exactmat.rank_mod_p.s": (modp["total_s"], "s"),
        "exactmat.rank_mod_p.cells": (modp.get("cells", 0), "count"),
        "blockrec.recursive_middle_rank.calls": (rec["calls"], "count"),
        "blockrec.recursive_middle_rank.self_s": (rec["self_s"], "s"),
        "blockrec.recursive_middle_rank.fallbacks": (rec.get("fallbacks", 0), "count"),
        "blockrec.structured_ratio": (_ratio(rec["calls"] - rec.get("fallbacks", 0), rec["calls"]), "ratio"),
        "quotient.multiply.calls": (mul["calls"], "count"),
        "quotient.multiply.s": (mul["total_s"], "s"),
        "embedding.phi_matrix.calls": (phi["calls"], "count"),
        "embedding.phi_matrix.self_s": (phi["self_s"], "s"),
        "exactmat.mat_mul.calls": (mat_mul["calls"], "count"),
        "exactmat.mat_mul.s": (mat_mul["total_s"], "s"),
        "exactmat.mat_mul.madds": (mat_mul.get("madds", 0), "count"),
        "embedding.verify_socle_image.s": (span("embedding.verify_socle_image")["total_s"], "s"),
        "embedding.verify_kernel_dims.self_s": (span("embedding.verify_kernel_dims")["self_s"], "s"),
        "embedding.transfer_slp.self_s": (span("embedding.transfer_slp")["self_s"], "s"),
        "lefschetz.slp_check.maps": (span("lefschetz.slp_check").get("maps", 0), "count"),
        "cli.main.calls": (cli["calls"], "count"),
        "cli.main.self_s": (cli["self_s"], "s"),
    }
    for layer in LAYERS:
        own = sum(s["self_s"] for name, s in spans.items() if name.startswith(layer + "."))
        out[f"{layer}.self_s"] = (own, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.uncovered_frac"] = (_ratio(max(wall_s - covered_s, 0.0), wall_s), "ratio")
    return out
