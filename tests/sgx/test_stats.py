"""Tests for the enclave call statistics."""

import pytest

from repro.sgx.enclave import CallStats, OcallRequest


def make_request(name="f", mode="regular", issued_at=0.0):
    request = OcallRequest(name=name, issued_at=issued_at)
    request.mode = mode
    return request


class TestCallStats:
    def test_record_by_mode(self):
        stats = CallStats()
        stats.record(make_request(mode="regular"), 100.0)
        stats.record(make_request(mode="switchless"), 50.0)
        stats.record(make_request(mode="fallback"), 200.0)
        site = stats.by_name["f"]
        assert site.calls == 3
        assert (site.regular, site.switchless, site.fallback) == (1, 1, 1)
        assert stats.total_calls == 3

    def test_latency_aggregation(self):
        stats = CallStats()
        stats.record(make_request(issued_at=0.0), 100.0)
        stats.record(make_request(issued_at=100.0), 400.0)
        site = stats.by_name["f"]
        assert site.mean_latency_cycles == pytest.approx(200.0)
        assert site.max_latency_cycles == pytest.approx(300.0)

    def test_unset_mode_rejected(self):
        stats = CallStats()
        with pytest.raises(ValueError):
            stats.record(OcallRequest(name="f"), 10.0)

    def test_switchless_fraction(self):
        stats = CallStats()
        for _ in range(3):
            stats.record(make_request(mode="switchless"), 1.0)
        stats.record(make_request(mode="regular"), 1.0)
        assert stats.switchless_fraction() == pytest.approx(0.75)
        assert CallStats().switchless_fraction() == 0.0

    def test_summary_structure(self):
        stats = CallStats()
        stats.record(make_request(name="write", mode="switchless"), 5.0)
        stats.record(make_request(name="read", mode="regular"), 7.0)
        summary = stats.summary()
        assert list(summary) == ["read", "write"]  # sorted
        assert summary["write"]["switchless"] == 1
        assert summary["read"]["regular"] == 1
        assert summary["read"]["mean_latency_cycles"] == pytest.approx(7.0)

    def test_empty_site_mean(self):
        from repro.sgx.enclave import CallSiteStats

        assert CallSiteStats().mean_latency_cycles == 0.0

    def test_site_entry_built_only_on_first_call(self, monkeypatch):
        import repro.sgx.enclave as enclave_module

        built = []
        original = enclave_module.CallSiteStats

        def counting_site_stats():
            built.append(1)
            return original()

        monkeypatch.setattr(enclave_module, "CallSiteStats", counting_site_stats)
        stats = CallStats()
        for name in ("f", "f", "g", "f"):
            stats.record(make_request(name=name), 1.0)
        assert len(built) == 2
        assert stats.by_name["f"].calls == 3
