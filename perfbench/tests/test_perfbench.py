"""Self-tests for the benchmark's own code.

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from measure import MIN_BEYOND, percentile  # noqa: E402


class TestPercentile:
    def test_reported_with_ten_samples_beyond(self):
        samples = [float(i) for i in range(1000)]
        random.Random(0).shuffle(samples)
        # nearest rank 990 of 1000 leaves exactly ten samples above it
        assert percentile(samples, 99) == 989.0

    def test_withheld_with_fewer_than_ten_beyond(self):
        assert percentile([float(i) for i in range(999)], 99) is None
        assert percentile([1.0] * 19, 50) is None
        assert percentile([], 50) is None

    @pytest.mark.parametrize("n", [20, 21, 200, 1999])
    def test_median_rule_at_boundary(self, n):
        value = percentile([float(i) for i in range(n)], 50)
        assert value is not None
        assert n - (value + 1) >= MIN_BEYOND


class TestGeneration:
    def test_same_seed_same_exchange(self):
        assert workloads.generate_exchange(7) == workloads.generate_exchange(7)
        assert workloads.generate_exchange(7) != workloads.generate_exchange(8)

    def test_same_seed_same_serve_stream(self):
        def first(seed, client, n=20):
            stream = workloads.serve_stores(seed, client)
            return [next(stream) for _ in range(n)]
        assert first(3, 0) == first(3, 0)
        assert first(3, 0) != first(3, 1)
        assert first(3, 0) != first(4, 0)

    def test_exchange_policies_are_distinct_and_sized(self):
        spec = workloads.generate_exchange(11)
        policies = [doc.policy for doc in spec.documents]
        assert len(set(policies)) == len(policies)
        from cake import policy
        leaves = {sum(1 for _ in policy.tree_leaves(
            policy.compile_policy(policy.parse_policy(p)))) for p in policies}
        assert leaves == set(workloads.EXCHANGE_LEAVES)

    def test_serve_policies_let_the_auditor_read(self):
        from cake import policy
        auditor = {workloads.SERVE_TENANT, workloads.SERVE_AUDIT}
        stream = workloads.serve_stores(5, 0)
        for _ in range(30):
            _, slices = next(stream)
            for _, text, _ in slices:
                assert policy.evaluate(policy.parse_policy(text), auditor)


class TestExchangeOracle:
    SPEC_ARGS = dict(actors=4, documents=6)

    def run_pass(self, flip=None):
        spec = workloads.generate_exchange(2, **self.SPEC_ARGS)
        expected = workloads.access_oracle(spec)
        if flip is not None:
            d, a = flip
            expected[d][a] = not expected[d][a]
        result = workloads.Result()
        workloads.exchange_pass(spec, expected, 99, result)
        return result.log

    def test_honest_pass_has_no_failures(self):
        log = self.run_pass()
        assert log.failed_total == 0
        assert len(log.samples["read"]) == 4 * 6

    @pytest.mark.parametrize("cell", [(0, 0), (5, 3), (2, 1)])
    def test_flipped_cell_is_a_failed_check(self, cell):
        log = self.run_pass(flip=cell)
        assert dict(log.failed) == {"check": 1}

    def test_wrong_payload_is_caught(self):
        assert workloads.read_matches(True, b"abc", [("body", b"abc")])
        assert not workloads.read_matches(True, b"abc", [("body", b"abd")])
        assert not workloads.read_matches(False, b"abc", [("body", b"abc")])
        assert workloads.read_matches(False, b"abc", [("body", None)])


class TestSpans:
    def make_tracer(self):
        ticks = iter(range(0, 10_000, 10))
        return spans.Tracer(clock=lambda: next(ticks))

    def test_self_time_is_span_minus_children(self):
        tracer = self.make_tracer()
        inner = tracer.wrap("inner", lambda: None)
        leaf = tracer.wrap("leaf", lambda: None)

        def body():
            inner()
            leaf()
            inner()
        outer = tracer.wrap("outer", body)
        outer()
        by_name = {}
        for name, start, end, parent, child_ns in tracer.spans:
            by_name.setdefault(name, []).append((start, end, parent, child_ns))
        (o_start, o_end, _, _), = by_name["outer"]
        children = sum(end - start for name in ("inner", "leaf")
                       for start, end, _, _ in by_name[name])
        summary = tracer.summary()
        assert summary["self_ns"]["outer"] == (o_end - o_start) - children
        assert summary["self_ns"]["inner"] == 20  # two spans of one tick each
        assert summary["calls"] == {"outer": 1, "inner": 2, "leaf": 1}
        assert summary["pairs"] == {"outer>inner": 2, "outer>leaf": 1}

    def test_recursion_stays_in_one_span(self):
        tracer = self.make_tracer()

        def fact(n):
            return 1 if n <= 1 else n * traced(n - 1)
        traced = tracer.wrap("fact", fact)
        assert traced(5) == 120
        assert tracer.summary()["calls"] == {"fact": 1}

    def test_span_ends_when_the_call_raises(self):
        tracer = self.make_tracer()

        def boom():
            raise ValueError("x")
        with pytest.raises(ValueError):
            tracer.wrap("boom", boom)()
        assert tracer.summary()["calls"] == {"boom": 1}

    def test_install_wraps_and_uninstall_restores(self):
        from cake import abe, ledger, policy
        originals = (policy.parse_policy, ledger.Chain.__dict__["load"],
                     abe.decrypt_slice)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            assert policy.parse_policy is not originals[0]
            policy.parse_policy("(a or b)")
        finally:
            uninstall()
        assert (policy.parse_policy, ledger.Chain.__dict__["load"],
                abe.decrypt_slice) == originals
        assert tracer.summary()["calls"] == {"policy.parse_policy": 1}

    def test_unwrap_need(self):
        # key holds a, b, c: unwraps all three; (a and b) or c needs only c
        assert spans.unwrap_need("((a and b) or c)", frozenset("abc")) == (1, 3)
        assert spans.unwrap_need("((a and b) or c)", frozenset("ab")) == (2, 2)
        assert spans.unwrap_need("(a and b)", frozenset("a")) == (0, 1)

    def test_merge_adds(self):
        a = {"calls": {"x": 1}, "self_ns": {"x": 5}, "pairs": {}, "counters": {"k": 2}}
        b = {"calls": {"x": 2, "y": 1}, "self_ns": {"x": 1}, "pairs": {"x>y": 1},
             "counters": {}}
        merged = spans.merge_summaries([a, b])
        assert merged["calls"] == {"x": 3, "y": 1}
        assert merged["counters"] == {"k": 2}


class TestBenchmarkFile:
    def test_metric_names_match_the_runner(self):
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        result = workloads.Result(setup_s=[1.0], timed_s=1.0, ops_completed=1,
                                  peak_rss_mb=1.0)
        result.log.samples["read"] = [1.0] * 100
        e2e = run.end_to_end("exchange", result)
        assert [m["name"] for m in declared["end_to_end"]] == list(e2e)
        empty = {"calls": {}, "self_ns": {}, "pairs": {}, "counters": {}}
        layer = run.per_layer("exchange", empty, result, result)
        assert [m["name"] for m in declared["per_layer"]] == list(layer)
        assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
