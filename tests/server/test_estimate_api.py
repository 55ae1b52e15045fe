"""HTTP surface of the approximate tier and the significance tier.

``estimate=true`` turns the read endpoints into answers counted from
the engine's index plus the pending queue, with (zero) error bounds and
an automatic exact-refresh flush behind them;
``chi_square`` / ``p_value`` floors and orderings stay exact-mode and
carry the significance figures in every rule payload.
"""

import time

import pytest

from tests.server.conftest import ROWS


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


class TestEstimateTop:
    def test_estimated_payload_shape(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=3&estimate=true")
        assert status == 200
        assert body["estimated"] is True
        assert body["tenant"] == "demo"
        assert body["revision"] == 1
        assert body["z"] == 2.0 and body["confidence_level"] is None
        assert body["pending_events"] == 0
        assert body["flush_scheduled"] is False
        for rule in body["rules"]:
            assert rule["estimated"] is True
            for metric in ("support", "confidence", "lift"):
                assert f"{metric}_bound" in rule
                assert rule[f"{metric}_bound"] >= 0.0
            assert "rendered" in rule and "±" in rule["rendered"]
        # Counts come from the index itself: every answer is exact.
        assert all(rule["exact"] for rule in body["rules"])
        assert all(rule[f"{metric}_bound"] == 0.0
                   for rule in body["rules"]
                   for metric in ("support", "confidence", "lift"))

    def test_estimate_agrees_with_exact_at_small_scale(self, served_tenant):
        _, exact, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=5&by=support")
        _, estimated, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=5&by=support&estimate=true")
        exact_rules = {(tuple(r["lhs"]), r["rhs"]): r
                       for r in exact["rules"]}
        for rule in estimated["rules"]:
            twin = exact_rules[(tuple(rule["lhs"]), rule["rhs"])]
            assert rule["support"] == pytest.approx(twin["support"])
            assert rule["confidence"] == pytest.approx(twin["confidence"])

    def test_confidence_level_parameter(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?estimate=true&confidence_level=0.95")
        assert status == 200
        assert body["confidence_level"] == 0.95
        assert body["z"] == pytest.approx(1.959964, abs=1e-5)

    def test_bad_confidence_level_rejected(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?estimate=true&confidence_level=1.5")
        assert status == 400

    def test_significance_metric_needs_exact_mode(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?estimate=true&by=chi_square")
        assert status == 400
        assert "estimate" in body["error"]

    def test_queued_events_served_immediately_with_exact_behind(
            self, served_tenant):
        status, body, _ = served_tenant.request(
            "POST", "/v1/demo/events",
            {"type": "add_annotated_tuples",
             "rows": [[["a", "x"], ["A1"]] for _ in range(4)]})
        assert status == 202

        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=3&estimate=true")
        assert status == 200
        # The answer came from the still-published revision, with the
        # queue folded in as an exact overlay...
        assert body["revision"] == 1
        assert body["db_size"] == len(ROWS) + 4
        assert body["overlay_rows"] == 4
        # ...and the exact refresh was scheduled behind it.
        assert body["flush_scheduled"] is True

        def flushed():
            _, tenant, _ = served_tenant.request("GET", "/v1/demo")
            return tenant["pending_events"] == 0 and \
                tenant["revision"] == 2
        assert wait_until(flushed), "async exact refresh never landed"
        _, after, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=3&estimate=true")
        assert after["revision"] == 2
        assert after["db_size"] == len(ROWS) + 4
        assert after["flush_scheduled"] is False

    def test_estimate_reads_feed_the_metrics(self, served_tenant):
        served_tenant.request("GET", "/v1/demo/rules/top?estimate=true")
        status, body, _ = served_tenant.request("GET", "/metrics")
        assert status == 200
        reads = body["metrics"]["service_estimate_reads"]
        assert reads["value"] >= 1
        assert body["metrics"]["service_estimate_seconds"]["count"] >= 1


class TestEstimateQuery:
    def test_floors_filter_on_estimated_metrics(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/query?estimate=true&min_support=0.3"
                   "&order_by=support")
        assert status == 200
        assert body["estimated"] is True and body["order_by"] == "support"
        assert body["count"] == body["total"] == len(body["rules"])
        assert all(rule["support"] >= 0.3 for rule in body["rules"])
        values = [rule["support"] for rule in body["rules"]]
        assert values == sorted(values, reverse=True)

    def test_paging(self, served_tenant):
        _, full, _ = served_tenant.request(
            "GET", "/v1/demo/query?estimate=true&order_by=confidence")
        _, page, _ = served_tenant.request(
            "GET", "/v1/demo/query?estimate=true&order_by=confidence"
                   "&offset=1&limit=2")
        assert page["offset"] == 1 and page["count"] <= 2
        assert [r["rendered"] for r in page["rules"]] == \
            [r["rendered"] for r in full["rules"][1:3]]

    def test_significance_floors_rejected_in_estimate_mode(
            self, served_tenant):
        for param in ("max_p_value=0.5", "min_chi_square=1.0"):
            status, body, _ = served_tenant.request(
                "GET", f"/v1/demo/query?estimate=true&{param}")
            assert status == 400
            assert "exact" in body["error"]

    def test_item_filters_rejected_in_estimate_mode(self, served_tenant):
        for param in ("mentioning=a", "rhs=A1"):
            status, body, _ = served_tenant.request(
                "GET", f"/v1/demo/query?estimate=true&{param}")
            assert status == 400


class TestSignificanceTier:
    def test_top_by_chi_square_carries_the_figures(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=5&by=chi_square")
        assert status == 200
        scores = [rule["chi_square"] for rule in body["rules"]]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= rule["p_value"] <= 1.0 for rule in body["rules"])

    def test_query_significance_floors(self, served_tenant):
        status, body, _ = served_tenant.request(
            "GET", "/v1/demo/query?max_p_value=0.9&order_by=p_value")
        assert status == 200
        p_values = [rule["p_value"] for rule in body["rules"]]
        assert p_values == sorted(p_values)
        assert all(p <= 0.9 for p in p_values)

        _, unfiltered, _ = served_tenant.request("GET", "/v1/demo/query")
        assert body["total"] <= unfiltered["total"]

    def test_min_chi_square_floor(self, served_tenant):
        _, ordered, _ = served_tenant.request(
            "GET", "/v1/demo/query?order_by=chi_square")
        floor = ordered["rules"][0]["chi_square"]
        status, body, _ = served_tenant.request(
            "GET", f"/v1/demo/query?min_chi_square={floor}")
        assert status == 200
        assert body["total"] >= 1
        assert all(rule["chi_square"] >= floor for rule in body["rules"])

    def test_exact_rules_omit_significance_unless_asked(self, served_tenant):
        _, plain, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=2&by=confidence")
        assert all("chi_square" not in rule for rule in plain["rules"])
        _, sig, _ = served_tenant.request(
            "GET", "/v1/demo/rules/top?n=2&by=p_value")
        assert all("chi_square" in rule and "p_value" in rule
                   for rule in sig["rules"])


class TestTenantConfig:
    def test_sketch_k_is_an_unknown_config_field(self, served):
        """Estimates count from the engine's own index, so the old
        sample-size knob names nothing: 400, and no tenant appears."""
        status, body, _ = served.request(
            "POST", "/v1/tenants",
            {"name": "k64", "columns": ["c1", "c2"], "rows": ROWS,
             "config": {"sketch_k": 64}})
        assert status == 400
        assert "unknown engine config field" in body["error"]
        assert "sketch_k" in body["error"]
        status, _, _ = served.request("GET", "/v1/k64")
        assert status == 404
