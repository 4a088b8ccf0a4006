"""Self-tests of the benchmark: seeded inputs, the correctness gate, span arithmetic, output contract."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import rimhooks
from rimhooks import cli, insertion, peeling, verify
from perfbench import harness, tracing, workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _ignore(op, dt):
    pass


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == first
    assert workloads.fingerprint(workloads.generate(workload, 7)) == workloads.fingerprint(first)
    assert workloads.fingerprint(workloads.generate(workload, 8)) != workloads.fingerprint(first)


def test_bijection_gate_flags_a_changed_count():
    item = ((4, 3, 1), ((2, 0, 1, 0), (1, 3, 0), (1,)))
    assert workloads.run_bijection(item, _ignore) == (0, [])

    t = rimhooks.Tableau(rimhooks.Partition(item[0]), item[1])
    pi = rimhooks.build(t)
    image = rimhooks.hg(pi)
    outputs = (rimhooks.factorize(pi).to_tableau(), rimhooks.peel_tableau(pi), image, rimhooks.hg_inv(image))
    assert workloads.check_bijection(t, pi, *outputs) == []
    corrupted = t.with_path([(2, 2)], +1)
    problems = workloads.check_bijection(t, pi, outputs[0], corrupted, *outputs[2:])
    assert len(problems) == 1 and "peel_tableau" in problems[0]


def test_series_gate_flags_a_changed_coefficient():
    item = ((3, 2), 12, 5)
    assert workloads.run_series(item, _ignore) == (0, [])
    shape = rimhooks.Partition(item[0])
    hook = rimhooks.hook_product(shape, 12)
    wrong = rimhooks.TruncatedSeries(hook.coefficients[:-1] + (hook.coefficients[-1] + 1,))
    refined = rimhooks.gansner_product(shape, 5)
    problems = workloads.check_series(item[0], 12, wrong, refined, rimhooks.hook_product(shape, 5))
    assert len(problems) == 1 and "recurrence" in problems[0]


def test_reference_recurrence_counts_fillings():
    # fillings of (2, 1) by size: hook lengths 3, 1, 1
    assert workloads.reference_hook_series((2, 1), 4) == [1, 2, 3, 5, 7]


def test_verify_gate_counts_failed_and_missing_results():
    ok = [{"suite": "hg", "name": str(i), "passed": True} for i in range(workloads.VERIFY_RESULTS["hg"])]
    assert workloads.check_verify("hg", 0, json.dumps(ok)) == (0, [])
    one_failed = [dict(r, passed=(i != 3)) for i, r in enumerate(ok)]
    assert workloads.check_verify("hg", 1, json.dumps(one_failed))[0] == 1
    assert workloads.check_verify("hg", 0, json.dumps(ok[:-2]))[0] == 2
    assert workloads.check_verify("hg", 0, json.dumps(ok[:-1] + [dict(ok[0], suite="gk")]))[0] == 1
    assert workloads.check_verify("hg", 1, '{"error": "boom"}')[0] == workloads.VERIFY_RESULTS["hg"]


def test_verify_round_runs_every_suite_once():
    (round_,) = workloads.generate(workloads.WORKLOADS["verify-acceptance"], 4)
    assert [argv[1] for argv in round_] == [s for s in verify.SUITES]
    assert sum(workloads.VERIFY_RESULTS.values()) == 95


def test_round_time_sums_the_median_of_each_kind():
    tally = harness.Tally()
    tally.item_cpu["a"] += [float(v) for v in range(1, 12)]  # median 6.0
    tally.item_cpu["b"] += [1.0, 9.0, 2.0]  # median 2.0
    tally.item_cpu["c"] += [5.0]
    assert harness.round_s(tally) == 13.0


def test_self_time_on_a_nested_span_tree():
    #  a [0, 10] ── b [1, 4] ── c [2, 3]
    #            └─ b [5, 9]
    #  d [11, 12]
    keys = ["a", "b", "c", "b", "d"]
    parent = [-1, 0, 1, 0, -1]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    agg = tracing.aggregate(keys, parent, start, end)
    assert {k: (v.calls, v.total_s, v.self_s) for k, v in agg.items()} == {
        "a": (1, 10.0, 3.0),
        "b": (2, 7.0, 6.0),
        "c": (1, 1.0, 1.0),
        "d": (1, 1.0, 1.0),
    }


def test_tracer_nests_spans_and_counts_under_an_ancestor():
    tracer = tracing.Tracer()
    a, b = tracer.name_id("a"), tracer.name_id("b")
    outer = tracer.begin(a)
    inner = tracer.begin(b)
    tracer.finish(inner)
    tracer.finish(outer)
    tracer.finish(tracer.begin(b))
    assert list(tracer.parent) == [-1, 0, -1]
    assert tracing.count_under(tracer, "b", "a") == 1
    agg = tracing.by_name(tracer)
    assert agg["a"].self_s <= agg["a"].total_s and agg["b"].calls == 2
    assert [row["path"] for row in tracing.call_paths(tracer)].count("a > b") == 1


def test_install_rebinds_every_namespace_and_undoes_it():
    originals = (rimhooks.build, insertion.build, verify.build, cli.factorize, peeling.peel_tableau, cli.run)
    suites = dict(verify.SUITES)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert rimhooks.build is insertion.build is verify.build is not originals[0]
        assert cli.factorize is not originals[3] and cli.run is not originals[5]
        assert all(verify.SUITES[k] is not suites[k] for k in suites)
        pi = rimhooks.Rpp(rimhooks.Partition((3, 2)), ((0, 1, 2), (1, 2)))
        anchors = rimhooks.factorize(pi).anchors
        wrapper = peeling.peel_tableau
        assert rimhooks.peel_tableau(pi) == rimhooks.Factorization(pi.shape, anchors).to_tableau()
        assert peeling.peel_tableau is wrapper
    finally:
        uninstall()
    assert (rimhooks.build, insertion.build, verify.build, cli.factorize, peeling.peel_tableau, cli.run) == originals
    assert verify.SUITES == suites
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["peeling.peel_tableau.calls"][0] == 1  # one span per outside call
    assert tracing.by_name(tracer)["insertion.factorize"].calls == 1
    assert tracer.counts["insertion.factorize.hooks"] == len(anchors)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_reports_exactly_the_declared_metrics(trace, section, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "TRACE_DIR", tmp_path)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    argv = ["--workload", "series-products", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert harness.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert json.loads(lines[-2])["report"]["inputs_fingerprint"]
