"""A small least-recently-used store shared by the smoothing and harness layers."""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRUCache:
    """Values built on first request and kept for the `maxsize` latest keys.

    `hits` and `misses` count the requests answered from the store and the
    ones that called `build`.  Safe to share between threads; `build` runs
    outside the lock, so two threads missing the same key both build it.
    """

    def __init__(self, maxsize: int = 4):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            if key in self._store:
                self.hits += 1
                self._store.move_to_end(key)
                return self._store[key]
            self.misses += 1
        val = build()
        with self._lock:
            self._store[key] = val
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
        return val

    def clear(self) -> None:
        """Drop every stored value; the counts are kept."""
        with self._lock:
            self._store.clear()
