"""The shared least-recently-used store."""

from pinbeam.cache import LRUCache


def test_keeps_latest_keys_and_counts_requests():
    cache = LRUCache(2)
    builds = []

    def build(k):
        builds.append(k)
        return k * 10

    for k in (1, 2, 1, 3, 2, 1):
        assert cache.get(k, lambda: build(k)) == k * 10
    # 1 and 2 miss; 1 hits and becomes latest; 3 evicts 2; 2 evicts 1; 1 evicts 3
    assert builds == [1, 2, 3, 2, 1]
    assert (cache.hits, cache.misses) == (1, 5)
    cache.clear()
    cache.get(1, lambda: build(1))
    assert builds[-1] == 1 and cache.misses == 6
