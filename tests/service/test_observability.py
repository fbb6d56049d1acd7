"""Observability over HTTP: ``/metrics`` and ``/trace``.

The asyncio front end must expose a valid Prometheus scrape (our own
strict validator is the arbiter — the same one the
``metrics-scrape-smoke`` CI job runs) and a ``/trace`` payload whose
slowest-request ring carries per-stage spans shipped back from the
worker processes.  Scraping must never disturb query results: a seeded
sample is bit-identical before and after a scrape.
"""

import urllib.request

import pytest

from repro.obs.prometheus import (
    CONTENT_TYPE,
    parse_exposition,
    validate_exposition,
)
from repro.service import HTTPServiceClient


@pytest.fixture(scope="module")
def client(served):
    return HTTPServiceClient(served.url)


def drive(client, workload, n=6, seed=700):
    for i in range(n):
        name = workload[i % len(workload)][0]
        client.sample(name, r=2, seed=seed + i)


def unlabeled_value(families, family):
    """The value of a family's unlabeled series."""
    return next(value for _, labels, value in families[family]["samples"]
                if not labels)


def histogram_count(families, family):
    """The unlabeled ``_count`` of a parsed histogram family."""
    return next(value for name, labels, value in families[family]["samples"]
                if name == family + "_count" and not labels)


class TestMetricsOverHTTP:
    def test_scrape_passes_the_strict_validator(self, client, workload):
        drive(client, workload)
        text = client.metrics_text()
        assert validate_exposition(text) == []

    def test_content_type_pins_the_exposition_version(self, served, client,
                                                      workload):
        drive(client, workload, n=1)
        with urllib.request.urlopen(served.url + "/metrics",
                                    timeout=10) as resp:
            assert resp.headers["Content-Type"] == CONTENT_TYPE
            text = resp.read().decode("utf-8")
        assert validate_exposition(text) == []

    def test_request_counters_monotone_across_scrapes(self, client,
                                                      workload):
        drive(client, workload)
        before = parse_exposition(client.metrics_text())
        drive(client, workload, n=5, seed=900)
        after = parse_exposition(client.metrics_text())
        for family in ("requests_total", "served_total"):
            assert (unlabeled_value(after, family)
                    >= unlabeled_value(before, family) + 5)

    def test_stage_histograms_reach_the_scrape(self, client, workload):
        """Queue/execute *and* the deep descent stage surface as families."""
        drive(client, workload)
        families = parse_exposition(client.metrics_text())
        for family in ("stage_queue_s", "stage_execute_s",
                       "stage_descent_s", "batch_size"):
            assert families[family]["type"] == "histogram"
            assert histogram_count(families, family) > 0

    def test_frontier_cache_counters_present(self, client, workload):
        drive(client, workload)
        families = parse_exposition(client.metrics_text())
        hits = unlabeled_value(families, "frontier_cache_hits_total")
        misses = unlabeled_value(families, "frontier_cache_misses_total")
        assert hits + misses > 0

    def test_gauges_present(self, client, workload):
        drive(client, workload, n=1)
        families = parse_exposition(client.metrics_text())
        assert families["uptime_seconds"]["type"] == "gauge"
        assert unlabeled_value(families, "uptime_seconds") >= 0
        assert families["queue_depth"]["type"] == "gauge"


class TestTraceOverHTTP:
    def test_trace_carries_per_stage_spans(self, client, workload):
        drive(client, workload)
        payload = client.trace()
        assert payload["slowest"], "trace ring is empty after traffic"
        slowest = payload["slowest"][0]
        assert {"id", "op", "total_s", "spans"} <= set(slowest)
        assert {"queue", "batch_assembly", "execute"} <= set(slowest["spans"])
        assert slowest["total_s"] >= max(slowest["spans"].values()) - 1e-6

    def test_trace_ring_is_slowest_first(self, client, workload):
        drive(client, workload, n=8, seed=1300)
        totals = [t["total_s"] for t in client.trace()["slowest"]]
        assert totals == sorted(totals, reverse=True)

    def test_stage_summaries_quote_quantiles(self, client, workload):
        drive(client, workload)
        stages = client.trace()["stages"]
        assert {"queue", "execute"} <= set(stages)
        queue = stages["queue"]
        assert queue["count"] > 0
        assert 0 <= queue["p50"] <= queue["p99"] <= queue["max"]


class TestScrapeDoesNotPerturbResults:
    def test_seeded_sample_identical_around_a_scrape(self, served, client,
                                                     workload):
        name = workload[3][0]
        before = served.client.sample(name, r=5, seed=77)
        client.metrics_text()
        client.trace()
        client.stats()
        after = served.client.sample(name, r=5, seed=77)
        assert before == after
