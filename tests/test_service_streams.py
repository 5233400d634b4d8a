"""StreamHub: bounded per-tenant pub/sub with cursors and wakeups."""

from repro.service.streams import ALL_TENANTS, StreamHub


class TestStreamHub:
    def test_publish_and_read_with_cursor(self):
        hub = StreamHub()
        hub.publish("a", {"n": 1})
        hub.publish("a", {"n": 2})
        records, cursor = hub.read("a", 0)
        assert [r["n"] for r in records] == [1, 2]
        # Caught up: same cursor, no records.
        records, cursor2 = hub.read("a", cursor)
        assert records == [] and cursor2 == cursor
        hub.publish("a", {"n": 3})
        records, _ = hub.read("a", cursor)
        assert [r["n"] for r in records] == [3]

    def test_tenants_are_isolated(self):
        hub = StreamHub()
        hub.publish("a", {"n": 1})
        hub.publish("b", {"n": 2})
        a_records, _ = hub.read("a", 0)
        b_records, _ = hub.read("b", 0)
        assert [r["n"] for r in a_records] == [1]
        assert [r["n"] for r in b_records] == [2]

    def test_firehose_sees_all_tenants_in_order(self):
        hub = StreamHub()
        hub.publish("a", {"n": 1})
        hub.publish("b", {"n": 2})
        hub.publish("a", {"n": 3})
        records, _ = hub.read(ALL_TENANTS, 0)
        assert [r["n"] for r in records] == [1, 2, 3]

    def test_ring_drops_oldest_and_counts(self):
        hub = StreamHub(capacity=3)
        for n in range(5):
            hub.publish("a", {"n": n})
        records, _ = hub.read("a", 0)
        assert [r["n"] for r in records] == [2, 3, 4]
        assert hub.dropped("a") == 2

    def test_limit_bounds_one_read(self):
        hub = StreamHub()
        for n in range(10):
            hub.publish("a", {"n": n})
        records, cursor = hub.read("a", 0, limit=4)
        assert [r["n"] for r in records] == [0, 1, 2, 3]
        records, _ = hub.read("a", cursor, limit=4)
        assert [r["n"] for r in records] == [4, 5, 6, 7]

    def test_unknown_tenant_reads_empty(self):
        hub = StreamHub()
        records, cursor = hub.read("ghost", 7)
        assert records == [] and cursor == 7
        assert hub.depth("ghost") == 0

    def test_stats_snapshot(self):
        hub = StreamHub(capacity=2)
        for n in range(3):
            hub.publish("a", {"n": n})
        stats = hub.stats()
        assert stats["a"] == {"published": 3, "retained": 2, "dropped": 1}
        assert stats[ALL_TENANTS]["published"] == 3
