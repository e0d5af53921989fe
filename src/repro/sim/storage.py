"""Bounded message stores with eviction and occupancy tracking.

The paper's storage model (Sections 2.3.2, 3.6, 3.7):

- Epidemic nodes hold one FIFO buffer; when it fills, "old messages are
  dropped when new messages come in".
- GLR nodes hold two areas — the **Store** (messages waiting to be sent)
  and the **Cache** (messages sent and awaiting custody ACK).  Under
  pressure, "message in the Cache is dropped first".
- Tables 4/5 report *max peak* and *average peak* storage across nodes,
  measured in messages.

:class:`MessageStore` implements one bounded FIFO area and records its
own high-water mark; :class:`DualStore` composes Store + Cache with the
paper's eviction priority and reports their combined occupancy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator, Optional


class StoreFullError(Exception):
    """Raised by :meth:`MessageStore.add` when eviction is disabled."""


class MessageStore:
    """A FIFO message area with optional capacity (in messages).

    Keys are arbitrary hashables (message uids or copy ids); values are
    the stored items.  Insertion order is preserved; eviction removes the
    oldest entry.  ``version`` counts changes to the set of keys (a new
    key, a pop of a present key, ``pop_oldest``, an eviction), so a
    snapshot of the keys stays valid until it moves; refreshing an
    existing key's item does not move it.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self._items: "OrderedDict[Hashable, object]" = OrderedDict()
        self.peak_occupancy = 0
        self.evictions = 0
        self.version = 0
        self._occupancy_time_product = 0.0
        self._last_sample_time = 0.0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def keys(self) -> list[Hashable]:
        """Stored keys, oldest first."""
        return list(self._items)

    def values(self) -> list[object]:
        """Stored items, oldest first."""
        return list(self._items.values())

    def get(self, key: Hashable) -> object | None:
        """Item for ``key`` or None."""
        return self._items.get(key)

    @property
    def is_full(self) -> bool:
        """True when at capacity (never for unbounded stores)."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def add(self, key: Hashable, item: object, evict: bool = True) -> list[object]:
        """Insert ``item`` under ``key``; returns any evicted items.

        With ``evict=False`` a full store raises :class:`StoreFullError`
        instead of displacing old entries.  Re-adding an existing key
        refreshes the item but keeps its queue position.
        """
        evicted: list[object] = []
        if key in self._items:
            self._items[key] = item
            return evicted
        while self.is_full:
            if not evict:
                raise StoreFullError(f"store at capacity {self.capacity}")
            _, old = self._items.popitem(last=False)
            self.evictions += 1
            self.version += 1
            evicted.append(old)
        self._items[key] = item
        self.version += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._items))
        return evicted

    def pop(self, key: Hashable) -> object | None:
        """Remove and return the item under ``key`` (None if absent)."""
        if key not in self._items:
            return None
        self.version += 1
        return self._items.pop(key)

    def pop_oldest(self) -> object | None:
        """Remove and return the oldest item (None when empty)."""
        if not self._items:
            return None
        self.version += 1
        _, item = self._items.popitem(last=False)
        return item

    def sample(self, now: float) -> None:
        """Record a time-weighted occupancy sample at time ``now``."""
        dt = max(0.0, now - self._last_sample_time)
        self._occupancy_time_product += dt * len(self._items)
        self._last_sample_time = now

    def time_average_occupancy(self, horizon: float) -> float:
        """Time-weighted mean occupancy over ``[0, horizon]``."""
        if horizon <= 0:
            return float(len(self._items))
        return self._occupancy_time_product / horizon


class DualStore:
    """GLR's Store + Cache pair with the paper's eviction priority.

    The combined capacity is shared: when an insert would exceed it, the
    Cache is evicted first (oldest first); only when the Cache is empty
    are Store entries displaced.  Peak occupancy counts both areas —
    that is what Tables 4/5 measure for GLR.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self.store = MessageStore(capacity=None)
        self.cache = MessageStore(capacity=None)
        self.peak_occupancy = 0
        self.evictions = 0

    def occupancy(self) -> int:
        """Total messages across Store and Cache."""
        return len(self.store) + len(self.cache)

    def _note_peak(self) -> None:
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy())

    def _make_room(self) -> list[object]:
        evicted: list[object] = []
        if self.capacity is None:
            return evicted
        while self.occupancy() >= self.capacity:
            victim = self.cache.pop_oldest()
            if victim is None:
                victim = self.store.pop_oldest()
            if victim is None:
                break
            self.evictions += 1
            evicted.append(victim)
        return evicted

    def add_to_store(self, key: Hashable, item: object) -> list[object]:
        """Insert into the Store area; returns evicted items."""
        if key in self.store:
            self.store.add(key, item)
            return []
        evicted = self._make_room()
        self.store.add(key, item)
        self._note_peak()
        return evicted

    def move_to_cache(self, key: Hashable) -> bool:
        """Move ``key`` from Store to Cache (message sent, awaiting ACK)."""
        item = self.store.pop(key)
        if item is None:
            return False
        self.cache.add(key, item)
        self._note_peak()
        return True

    def return_to_store(self, key: Hashable) -> bool:
        """Move ``key`` from Cache back to Store (ACK timeout — paper
        Section 2.3.2: "the message is moved from Cache to Store for
        another round of transfer rescheduling")."""
        item = self.cache.pop(key)
        if item is None:
            return False
        self.store.add(key, item)
        return True

    def acknowledge(self, key: Hashable) -> bool:
        """Delete ``key`` from the Cache (custody ACK received)."""
        return self.cache.pop(key) is not None

    def drop(self, key: Hashable) -> bool:
        """Remove ``key`` from whichever area holds it."""
        return self.store.pop(key) is not None or self.cache.pop(key) is not None

    def sample(self, now: float) -> None:
        """Record occupancy samples on both areas."""
        self.store.sample(now)
        self.cache.sample(now)

    def time_average_occupancy(self, horizon: float) -> float:
        """Combined time-weighted mean occupancy."""
        return self.store.time_average_occupancy(
            horizon
        ) + self.cache.time_average_occupancy(horizon)
