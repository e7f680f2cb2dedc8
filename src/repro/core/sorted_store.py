"""A numpy-backed candidate store sorted ascending by (score, t).

Shared by the baseline algorithms (k-skyband, MinTopK, SMA): they all
maintain a candidate set ordered by score with a per-candidate dominance
counter, and their hot loop is "increment the counter of every candidate
below the new arrival, evict those reaching k". Keeping the store as
contiguous numpy arrays makes that loop a slice operation, which is the
closest Python gets to the paper's C++ constant factors.

Entries with equal score are ordered by arrival index ``t`` ascending,
so ``topk()`` read from the tail yields the shared tie-break
(score desc, t desc).

:class:`StoreTopK` is the stream protocol the three baselines share on
top of the store: admit an arrival, drop an expiring candidate, report.
"""
from __future__ import annotations

import numpy as np

from .base import StreamTopK
from .query import TopKQuery


class SortedStore:
    """Candidate set sorted ascending by (score, t) with dom counters."""

    def __init__(self) -> None:
        self.scores = np.empty(0, dtype=np.float64)
        self.ts = np.empty(0, dtype=np.int64)
        self.dom = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.scores)

    def _locate(self, score: float, t: int) -> int:
        """Exact index of entry (score, t); -1 when absent."""
        lo = int(np.searchsorted(self.scores, score, side="left"))
        hi = int(np.searchsorted(self.scores, score, side="right"))
        for i in range(lo, hi):
            if self.ts[i] == t:
                return i
        return -1

    def contains(self, score: float, t: int) -> bool:
        """Membership test by (score, t)."""
        return self._locate(score, t) >= 0

    def insert(self, score: float, t: int, dom: int = 0) -> int:
        """Insert an entry, returning its position."""
        lo = int(np.searchsorted(self.scores, score, side="left"))
        hi = int(np.searchsorted(self.scores, score, side="right"))
        pos = lo
        while pos < hi and self.ts[pos] < t:
            pos += 1
        self.scores = np.insert(self.scores, pos, score)
        self.ts = np.insert(self.ts, pos, t)
        self.dom = np.insert(self.dom, pos, dom)
        return pos

    def remove_at(self, idx: int | np.ndarray) -> None:
        """Delete entries at the given index/indices."""
        self.scores = np.delete(self.scores, idx)
        self.ts = np.delete(self.ts, idx)
        self.dom = np.delete(self.dom, idx)

    def remove_entry(self, score: float, t: int) -> None:
        """Delete the entry (score, t); raises KeyError if absent."""
        i = self._locate(score, t)
        if i < 0:
            raise KeyError(f"(score={score}, t={t}) not in store")
        self.remove_at(i)

    def count_below(self, score: float) -> int:
        """Number of entries with score strictly below ``score``."""
        return int(np.searchsorted(self.scores, score, side="left"))

    def dominate_prefix(self, upto: int, k: int) -> int:
        """Increment dom of entries [0, upto); evict those reaching k.

        Returns the number of evicted entries. This is the "new arrival
        dominates every lower-scored candidate" step shared by the
        one-pass baselines.
        """
        if upto <= 0:
            return 0
        self.dom[:upto] += 1
        dead = np.nonzero(self.dom[:upto] >= k)[0]
        if len(dead):
            self.remove_at(dead)
        return len(dead)

    def topk(self, k: int) -> list[int]:
        """Best-first arrival indices of the k highest entries."""
        m = len(self.scores)
        take = min(k, m)
        return [int(self.ts[m - 1 - i]) for i in range(take)]

    def min_score(self) -> float:
        """Lowest score in the store (-inf when empty)."""
        return float(self.scores[0]) if len(self.scores) else float("-inf")

    def kth_from_top(self, k: int) -> float:
        """k-th highest score (-inf when fewer than k entries)."""
        if len(self.scores) < k:
            return float("-inf")
        return float(self.scores[len(self.scores) - k])


class StoreTopK(StreamTopK):
    """A baseline whose whole candidate set is one :class:`SortedStore`."""

    def __init__(self, q: TopKQuery) -> None:
        super().__init__(q)
        self.store = SortedStore()

    def _admit(self, score: float, t: int, dom: int = 0) -> None:
        """Insert an arrival; it dominates every lower-scored candidate."""
        st = self.store
        below = st.count_below(score)
        self.metrics.examined += below
        self.metrics.deletions += st.dominate_prefix(below, self.q.k)
        st.insert(score, t, dom=dom)
        self.metrics.insertions += 1

    def _expire(self, t: int, score: float) -> None:
        if self.store.contains(score, t):
            self.store.remove_entry(score, t)
            self.metrics.deletions += 1

    def topk(self) -> list[int]:
        return self.store.topk(self.q.k)

    def candidate_count(self) -> int:
        return len(self.store)
