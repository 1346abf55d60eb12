"""Self-tests of the decision benchmark.

Run from the repository root:  python3 -m pytest -q decidebench
"""
from __future__ import annotations

import json

import pytest

import corpus
import run
import tracer

entdis = run.load_entdis()


def _runner(case):
    return run.Runner(entdis, [case])


def test_correct_expectation_passes():
    case = corpus.Case("theorem1_d4", "decide", entdis.theorem1_set(4), corpus.INDISTINGUISHABLE_COVER)
    r = _runner(case)
    r.run_pass()
    r.run_pass()
    assert (r.attempted, r.failed) == (2, 0)


@pytest.mark.parametrize(
    "expect",
    [
        corpus.DISTINGUISHABLE,  # wrong verdict
        corpus.INDISTINGUISHABLE_BLOCK,  # wrong certificate kind
    ],
)
def test_wrong_expectation_counts_as_failure(expect):
    r = _runner(corpus.Case("theorem1_d4", "decide", entdis.theorem1_set(4), expect))
    r.run_pass()
    assert (r.attempted, r.failed) == (1, 1)
    assert r.failures[0]["case"] == "theorem1_d4"


def test_wrong_witness_floor_counts_as_failure():
    # a qutrit triple has an exact witness, so a 1e-4 floor must fail
    s = entdis.bell_set(3, [(0, 0), (1, 0), (0, 1)])
    r = _runner(corpus.Case("triple", "witness_search", s, corpus.NO_WITNESS))
    r.run_pass()
    assert r.failed == 1


def test_tampered_certificate_fails_reverification():
    s = entdis.theorem2_set(entdis.Theorem2Spec(7))
    case = corpus.Case("theorem2_d7", "decide", s, corpus.INDISTINGUISHABLE_BLOCK)
    doc = json.loads(run.call(entdis, case))
    cert = doc["reports"][1]["certificate"]
    cert["forced_functional_residuals"][0] += 1e-3
    problems = run.oracle.check(case, json.dumps(doc), entdis)
    assert problems and "B_to_A" in problems[0] and "re-verify" in problems[0]


def test_digest_change_across_passes_counts_as_failure():
    case = corpus.Case("theorem1_d4", "decide", entdis.theorem1_set(4), corpus.INDISTINGUISHABLE_COVER)
    r = _runner(case)
    report = run.call(entdis, case)
    r._check(case, report)
    r._check(case, report.replace('"tool_version"', '"tool_version" ', 1))
    assert r.failed == 1
    assert "differs from the first pass" in r.failures[0]["problems"][0]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    names = [c.name for c in corpus.build(workload, 7, entdis)]
    assert names == [c.name for c in corpus.build(workload, 7, entdis)]
    assert len(set(names)) == len(names)
    assert sum(c.largest for c in corpus.build(workload, 7, entdis)) == 1


def test_traced_pass_accounts_for_its_time_and_restores_names():
    original = entdis.search.scan_blocks
    s = entdis.bell_set(3, [(0, 0), (1, 0), (0, 1)])
    case = corpus.Case("triple", "decide", s, corpus.DISTINGUISHABLE)
    r = _runner(case)
    t = tracer.Tracer()
    with t.installed():
        times, _ = r.run_pass()
    assert entdis.search.scan_blocks is original
    assert r.failed == 0 and not t.missing and not t.absent()
    summary = t.summary()
    m = summary["metrics"]
    assert m["kernels.grad_calls"] > 0 and m["search.restarts"] >= 1
    assert m["certify.blocks_tried"] == 2 * 3  # every 2x2 block of both directions misses
    assert m["certify.scan_hit_ratio"] == 0.0 and m["search.povm_size"] > 0
    assert summary["accounted_s"] == pytest.approx(times["triple"], rel=0.05)


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(entdis.search, "hermitian_feasible_subspace")
    t = tracer.Tracer()
    with t.installed():
        pass
    assert "entdis.search.hermitian_feasible_subspace" in t.missing
    assert t.absent() == ["certify.subspace_s"]


def test_overlapping_kernel_calls_count_once_in_wall_time():
    t = tracer.Tracer()
    t.spans.append(["witness", -1, 0.0, 3.0])
    # two worker threads: kernels over [0, 1] and [0.5, 2] under the same witness_search span
    t._k_parent.extend([0, 0])
    t._k_start.extend([0.0, 0.5])
    t._k_end.extend([1.0, 2.0])
    m = t.summary()["metrics"]
    assert m["kernels.s"] == pytest.approx(2.0)
    assert m["kernels.busy_s"] == pytest.approx(2.5)
    assert m["search.witness_s"] == pytest.approx(1.0)


def test_seeded_pairs_skip_order_two_differences():
    import random

    pairs = corpus._random_pairs(random.Random(0), 8, 200, min_order=3)
    assert all(corpus._difference_order(8, a, b) >= 3 for a, b in pairs)
    d, (a, b) = corpus.PROTOCOL_ORDER2_PAIR
    assert corpus._difference_order(d, a, b) == 2
