"""Tier-1 check of the benchmark harness itself, at toy size.

A 2 000-product catalog, the topology hosted in this process and 150
ops per workload: enough to prove that every metric named in
``BENCHMARK.json`` is emitted, that a seed fixes the op stream, that the
layers separate the way the workloads claim, and that a wrong answer is
counted as a failure.  Writes only under ``tmp_path``.
"""

from __future__ import annotations

import json

import pytest

from bench.catalog import SMALL, generate
from bench.run import final_line, load_spec, run_one
from bench.runner import Outcome, Plan, Record, check_answers, op_digest
from bench.topology import build_stores
from bench.workloads import (GUIDE_JOIN, MATCH, POINT_JOIN, WORKLOADS,
                             Oracle)

SPEC = load_spec()
READ_ONLY = ("guide_zipf_read", "uniform_join_read", "stream_scan")


def _plan(workload, seed, out_dir):
    return Plan(workload=workload, seed=seed, out_dir=out_dir, max_ops=150,
                spec=SMALL, setups=1, in_process=True, warmup_ops=40,
                traced_ops=40)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench")
    return {workload: run_one(_plan(workload, 7, out_dir))
            for workload in WORKLOADS}


def test_benchmark_json_names_the_workloads_the_code_runs():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [metric["name"] for metric in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(results, workload):
    result = results[workload]
    assert result["failures"] == []
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 150
    for traced, listed in ((False, SPEC["end_to_end"]),
                           (True, SPEC["per_layer"])):
        line = json.loads(final_line(result, SPEC, traced))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        for metric in listed:
            emitted = line["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)
            assert metric["name"] in result["metrics"], metric["name"]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]] > 0, metric["name"]


@pytest.mark.parametrize("workload", READ_ONLY)
def test_read_only_workloads_write_nothing(results, workload):
    values = results[workload]["metrics"]
    for name in ("wal.bytes_per_batch", "wal.bytes_per_user_byte",
                 "wal.append_us", "store.apply_us",
                 "service.cache_invalidations", "cluster.failures",
                 "cluster.reroutes", "cluster.promotions"):
        assert values[name] == 0, name


def test_the_write_workload_exercises_wal_replication_and_compaction(results):
    values = results["mixed_write_read"]["metrics"]
    assert values["wal.bytes_per_batch"] > 0
    assert values["wal.append_us"] > 0 and values["store.apply_us"] > 0
    assert values["service.cache_invalidations"] > 0
    assert values["replica.rebootstraps"] == 1
    assert values["store.compact_s"] > 0


def test_the_workloads_separate_the_layers(results):
    guide = results["guide_zipf_read"]["metrics"]
    uniform = results["uniform_join_read"]["metrics"]
    assert guide["service.cache_hit_rate"] > 0.5
    assert uniform["service.cache_hit_rate"] == 0
    assert uniform["cluster.shard_requests_per_op"] \
        > 2 * guide["cluster.shard_requests_per_op"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_the_trace_covers_the_request(results, workload):
    values = results[workload]["metrics"]
    assert values["trace.coverage"] >= 0.9
    assert values["trace.overhead_ratio"] > 0
    assert values["cluster.rounds_per_op"] >= 0


def test_a_seed_fixes_the_op_stream(tmp_path):
    catalog = generate(7, SMALL)
    for workload in WORKLOADS:
        plan = _plan(workload, 7, tmp_path)
        assert op_digest(plan, catalog) == op_digest(plan, generate(7, SMALL))
        assert op_digest(plan, catalog) != op_digest(
            _plan(workload, 8, tmp_path), generate(8, SMALL))


def test_digest_is_recorded_in_the_result(results, tmp_path):
    catalog = generate(7, SMALL)
    for workload, result in results.items():
        assert result["op_digest"] == op_digest(
            _plan(workload, 7, tmp_path), catalog)


def test_a_corrupted_response_counts_as_a_failure(tmp_path):
    catalog = generate(7, SMALL)
    store, _split = build_stores(catalog.rows, tmp_path)
    oracle = Oracle(store, catalog)
    product = int(catalog.hot_products[0])
    honest = store.match(catalog.product_names[product])
    brand = next(t.tail for t in honest if t.relation == "brandIs")
    country = store.match(brand, "headquartersIn")[0].tail
    join = [{"?b": brand, "?c": country}]

    def failed(*records):
        outcome = Outcome()
        check_answers([list(records)], oracle, outcome)
        return outcome.failed

    assert failed(Record((MATCH, product), 0, 1, len(honest), honest, None),
                  Record((POINT_JOIN, product), 0, 1, 1, join, None)) == 0
    # One row short, one row altered, one row invented, one op raised.
    assert failed(Record((MATCH, product), 0, 1, len(honest) - 1, None,
                         None)) == 1
    assert failed(Record((POINT_JOIN, product), 0, 1, 1,
                         [{"?b": brand, "?c": "country:nowhere"}],
                         None)) == 1
    pair = catalog.hot_pairs[0]
    assert failed(Record((GUIDE_JOIN, pair), 0, 1, 1,
                         [{"?p": "product:invented"}], None)) == 1
    assert failed(Record((MATCH, product), 0, 1, -1, None,
                         "ProtocolError('gone')")) == 1
