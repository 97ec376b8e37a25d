"""The tracer patches every binding, times spans and restores the package."""
import os

import pytest

import slpkit
import slpkit.blockrec
import slpkit.cli
import slpkit.embedding
import slpkit.exactmat
import slpkit.lefschetz
import workloads
from tracing import Tracer, per_layer_metrics

BINDINGS = {
    "build_matrix": (slpkit, slpkit.lefschetz, slpkit.blockrec, slpkit.embedding, slpkit.cli),
    "certified_rank": (slpkit, slpkit.exactmat, slpkit.lefschetz, slpkit.blockrec, slpkit.embedding),
    "rank_mod_p": (slpkit, slpkit.exactmat, slpkit.lefschetz, slpkit.blockrec, slpkit.cli),
}


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_every_binding_is_patched_and_restored():
    originals = {name: getattr(slpkit, name) for name in BINDINGS}
    from_rows = slpkit.ExactMatrix.from_rows
    tr = Tracer()
    tr.install()
    try:
        for name, owners in BINDINGS.items():
            wrapped = {id(getattr(owner, name)) for owner in owners}
            assert len(wrapped) == 1, name
            assert getattr(slpkit, name) is not originals[name]
            assert getattr(slpkit, name).__wrapped__ is originals[name]
        assert slpkit.ExactMatrix.from_rows != from_rows
    finally:
        tr.uninstall()
    for name, owners in BINDINGS.items():
        assert all(getattr(owner, name) is originals[name] for owner in owners)
    assert slpkit.ExactMatrix.from_rows == from_rows


def test_spans_nest_and_count(tracer):
    report = slpkit.slp_check(slpkit.AlgebraSpec.quadratic(7), slpkit.LinearForm.ones(7))
    spans = {name: st.to_json() for name, st in tracer.stats.items() if st.calls}
    assert spans["lefschetz.slp_check"]["calls"] == 1
    assert spans["lefschetz.slp_check"]["maps"] == len(report.maps) == 4
    assert spans["blockrec.recursive_middle_rank"]["calls"] == 4
    build = spans["lefschetz.build_matrix"]
    assert build["calls"] > 0 and 0 < build["nnz"] <= build["cells"]
    assert 0 < build["self_s"] <= build["total_s"]
    # slp_check is the only top-level span, so it covers the rest
    top = spans["lefschetz.slp_check"]
    assert top["total_s"] <= tracer.covered_s
    assert sum(s["self_s"] for s in spans.values()) <= tracer.covered_s
    metrics = per_layer_metrics(spans, tracer.graded_basis_misses(), tracer.covered_s, tracer.covered_s, 0.0)
    assert metrics["blockrec.structured_ratio"] == (1.0, "ratio")
    assert metrics["exactmat.rank_fraction_free.calls"] == (0, "count")
    assert metrics["trace.uncovered_frac"] == (0.0, "ratio")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_records_every_required_span(tracer, tmp_path, workload):
    inputs = workloads.make_inputs(workload, 1, "tiny")
    for label, call, check in workloads.cases(workload, inputs, str(tmp_path)):
        assert check(call()) == [], label
    spans = {name for name, st in tracer.stats.items() if st.calls}
    assert workloads.missing_spans(workload, spans) == []
    assert workloads.missing_spans(workload, spans - {"lefschetz.build_matrix"}) == ["lefschetz.build_matrix"]


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
        assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)
    for seed in range(200):
        scan = workloads.make_inputs("prime-scan", seed)
        assert len(scan["form"]) == scan["n"] and set(scan["form"]) <= {-1, 1}
        for case in workloads.make_inputs("deficit-q", seed)["cases"]:
            assert [k for k, c in enumerate(case["form"]) if c == 0] == case["zeros"]
