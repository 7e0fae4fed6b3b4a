"""Tests for engine components: calibration, sessions, rate limiting,
datacenters, classification, request model."""

import pytest

from repro.engine.calibration import EngineCalibration
from repro.engine.classify import QueryClassifier
from repro.engine.datacenters import SEARCH_HOSTNAME, DatacenterCluster
from repro.engine.ratelimit import RateLimiter
from repro.engine.request import ResponseStatus, SearchRequest
from repro.engine.sessions import SessionStore
from repro.geo.coords import LatLon
from repro.net.dns import DNSResolver
from repro.net.ip import IPv4Address
from repro.queries.model import QueryCategory


class TestCalibration:
    def test_defaults_valid(self):
        EngineCalibration()

    def test_with_overrides(self):
        cal = EngineCalibration().with_overrides(maps_prob_generic=0.5)
        assert cal.maps_prob_generic == 0.5
        assert cal.organic_slots == EngineCalibration().organic_slots

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            EngineCalibration(maps_prob_generic=1.5)

    def test_invalid_slots_rejected(self):
        with pytest.raises(ValueError):
            EngineCalibration(organic_slots=0)

    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            EngineCalibration(poi_radius_miles=-1)

    @pytest.mark.parametrize(
        "field", ["poi_candidate_limit", "maps_card_size", "news_card_size"]
    )
    def test_negative_result_limit_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            EngineCalibration(**{field: -1})

    @pytest.mark.parametrize(
        "field", ["poi_candidate_limit", "maps_card_size", "news_card_size"]
    )
    def test_zero_result_limit_accepted(self, field):
        assert getattr(EngineCalibration(**{field: 0}), field) == 0


class TestSearchRequest:
    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            SearchRequest(
                query_text=" ",
                client_ip=IPv4Address.parse("10.0.0.1"),
                frontend_ip=IPv4Address.parse("198.51.100.1"),
                timestamp_minutes=0.0,
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            SearchRequest(
                query_text="x",
                client_ip=IPv4Address.parse("10.0.0.1"),
                frontend_ip=IPv4Address.parse("198.51.100.1"),
                timestamp_minutes=-1.0,
            )

    def test_day_derived_from_timestamp(self):
        request = SearchRequest(
            query_text="x",
            client_ip=IPv4Address.parse("10.0.0.1"),
            frontend_ip=IPv4Address.parse("198.51.100.1"),
            timestamp_minutes=3 * 24 * 60 + 10.0,
        )
        assert request.day == 3


class TestDatacenterCluster:
    def test_default_size(self):
        assert len(DatacenterCluster()) == 6

    def test_unique_frontend_ips(self):
        cluster = DatacenterCluster()
        assert len({dc.frontend_ip for dc in cluster}) == len(cluster)

    def test_by_ip(self):
        cluster = DatacenterCluster()
        dc = cluster[2]
        assert cluster.by_ip(dc.frontend_ip) is dc

    def test_by_unknown_ip_raises(self):
        with pytest.raises(KeyError):
            DatacenterCluster().by_ip(IPv4Address.parse("10.0.0.1"))

    def test_dns_record_covers_all_frontends(self):
        cluster = DatacenterCluster()
        record = cluster.dns_record()
        assert record.name == SEARCH_HOSTNAME
        assert len(record.addresses) == len(cluster)

    def test_install_into_resolver(self):
        cluster = DatacenterCluster()
        resolver = DNSResolver()
        cluster.install_into(resolver)
        ip = resolver.resolve(SEARCH_HOSTNAME, query_id=0)
        assert cluster.by_ip(ip) is not None

    def test_zero_datacenters_rejected(self):
        with pytest.raises(ValueError):
            DatacenterCluster(count=0)


class TestSessionStore:
    def test_recent_queries_within_window(self):
        store = SessionStore(window_minutes=10.0)
        store.record("c1", "Coffee", 100.0, None)
        assert store.recent_query_slugs("c1", 105.0) == ["coffee"]

    def test_queries_age_out(self):
        store = SessionStore(window_minutes=10.0)
        store.record("c1", "Coffee", 100.0, None)
        assert store.recent_query_slugs("c1", 111.0) == []

    def test_eleven_minute_wait_clears_window(self):
        # The paper waits 11 minutes between queries precisely so the
        # 10-minute window is empty.
        store = SessionStore(window_minutes=10.0)
        store.record("c1", "Coffee", 0.0, None)
        assert store.recent_query_slugs("c1", 11.0) == []

    def test_none_cookie_has_no_session(self):
        store = SessionStore()
        assert store.recent_query_slugs(None, 0.0) == []

    def test_remembered_location(self):
        store = SessionStore(window_minutes=10.0)
        loc = LatLon(41.0, -81.0)
        store.record("c1", "Coffee", 100.0, loc)
        assert store.remembered_location("c1", 105.0) == loc

    def test_location_memory_expires(self):
        store = SessionStore(window_minutes=10.0)
        store.record("c1", "Coffee", 100.0, LatLon(41.0, -81.0))
        assert store.remembered_location("c1", 100.0 + 31.0) is None

    def test_clear_forgets_everything(self):
        store = SessionStore()
        store.record("c1", "Coffee", 100.0, LatLon(41.0, -81.0))
        store.clear("c1")
        assert store.recent_query_slugs("c1", 101.0) == []
        assert store.remembered_location("c1", 101.0) is None

    def test_sessions_isolated_by_cookie(self):
        store = SessionStore()
        store.record("c1", "Coffee", 100.0, None)
        assert store.recent_query_slugs("c2", 101.0) == []


class TestRateLimiter:
    def test_allows_under_budget(self):
        limiter = RateLimiter(max_per_minute=5)
        ip = IPv4Address.parse("10.0.0.1")
        assert all(limiter.allow(ip, 0.0 + i * 0.01) for i in range(5))

    def test_blocks_over_budget(self):
        limiter = RateLimiter(max_per_minute=5)
        ip = IPv4Address.parse("10.0.0.1")
        for i in range(5):
            limiter.allow(ip, i * 0.01)
        assert not limiter.allow(ip, 0.06)

    def test_window_slides(self):
        limiter = RateLimiter(max_per_minute=5)
        ip = IPv4Address.parse("10.0.0.1")
        for i in range(5):
            limiter.allow(ip, i * 0.01)
        assert limiter.allow(ip, 2.0)  # old requests aged out

    def test_ips_independent(self):
        limiter = RateLimiter(max_per_minute=1)
        assert limiter.allow(IPv4Address.parse("10.0.0.1"), 0.0)
        assert limiter.allow(IPv4Address.parse("10.0.0.2"), 0.0)

    def test_rejected_requests_still_count(self):
        limiter = RateLimiter(max_per_minute=1)
        ip = IPv4Address.parse("10.0.0.1")
        limiter.allow(ip, 0.0)
        assert not limiter.allow(ip, 0.5)
        # Hammering keeps the window full.
        assert not limiter.allow(ip, 1.2)

    def test_outstanding_count(self):
        limiter = RateLimiter(max_per_minute=10)
        ip = IPv4Address.parse("10.0.0.1")
        limiter.allow(ip, 0.0)
        limiter.allow(ip, 0.1)
        assert limiter.outstanding(ip, 0.2) == 2
        assert limiter.outstanding(ip, 5.0) == 0

    def test_idle_ips_are_swept(self):
        # Many distinct client IPs (a gateway load test) must not
        # accumulate an empty window per IP forever.
        limiter = RateLimiter(max_per_minute=5, sweep_every=100)
        for i in range(5000):
            limiter.allow(IPv4Address(i + 1), float(i))
        assert limiter.tracked_ips() < 200

    def test_sweep_keeps_live_windows(self):
        limiter = RateLimiter(max_per_minute=5)
        busy = IPv4Address.parse("10.0.0.1")
        idle = IPv4Address.parse("10.0.0.2")
        limiter.allow(idle, 0.0)
        limiter.allow(busy, 10.0)
        assert limiter.sweep(10.5) == 1
        assert limiter.tracked_ips() == 1
        assert not all(limiter.allow(busy, 10.6) for _ in range(5))

    def test_reset_restores_pristine_state(self):
        limiter = RateLimiter(max_per_minute=1)
        ip = IPv4Address.parse("10.0.0.1")
        limiter.allow(ip, 0.0)
        assert not limiter.allow(ip, 0.1)
        limiter.reset()
        assert limiter.tracked_ips() == 0
        assert limiter.allow(ip, 0.2)

    def test_clone_makes_identical_decisions(self):
        limiter = RateLimiter(max_per_minute=3)
        ip = IPv4Address.parse("10.0.0.1")
        for i in range(2):
            limiter.allow(ip, i * 0.01)
        clone = limiter.clone_state()
        # Same snapshot, same verdicts from here on.
        assert [limiter.allow(ip, 0.1 + i * 0.01) for i in range(3)] == [
            clone.allow(ip, 0.1 + i * 0.01) for i in range(3)
        ]

    def test_clone_is_independent(self):
        limiter = RateLimiter(max_per_minute=2)
        ip = IPv4Address.parse("10.0.0.1")
        limiter.allow(ip, 0.0)
        clone = limiter.clone_state()
        clone.allow(ip, 0.1)
        clone.allow(ip, 0.2)
        # The clone's traffic never consumed the original's budget.
        assert limiter.allow(ip, 0.3)

    def test_restore_rewinds_to_snapshot(self):
        limiter = RateLimiter(max_per_minute=1)
        ip = IPv4Address.parse("10.0.0.1")
        pristine = limiter.clone_state()
        limiter.allow(ip, 0.0)
        assert not limiter.allow(ip, 0.1)
        limiter.restore(pristine)
        assert limiter.allow(ip, 0.2)


class TestQueryClassifier:
    def test_known_corpus_terms_resolve_exactly(self, corpus):
        classifier = QueryClassifier(corpus)
        query = classifier.classify("Starbucks")
        assert query.category is QueryCategory.LOCAL
        assert query.is_brand

    def test_known_politician(self, corpus):
        classifier = QueryClassifier(corpus)
        assert classifier.classify("Barack Obama").category is QueryCategory.POLITICIAN

    def test_unknown_local_vocabulary(self, corpus):
        classifier = QueryClassifier(corpus)
        assert classifier.classify("coffee").category is QueryCategory.LOCAL

    def test_unknown_person_shaped(self, corpus):
        classifier = QueryClassifier(corpus)
        query = classifier.classify("Jane Fakename")
        assert query.category is QueryCategory.POLITICIAN

    def test_unknown_issue_shaped(self, corpus):
        classifier = QueryClassifier(corpus)
        assert (
            classifier.classify("quantum gravity research").category
            is QueryCategory.CONTROVERSIAL
        )

    def test_empty_rejected(self, corpus):
        with pytest.raises(ValueError):
            QueryClassifier(corpus).classify("  ")

    def test_works_without_corpus(self):
        classifier = QueryClassifier(None)
        assert classifier.classify("school").category is QueryCategory.LOCAL


class TestResponseStatus:
    def test_codes(self):
        assert ResponseStatus.OK.value == 200
        assert ResponseStatus.RATE_LIMITED.value == 429
