"""The open-loop send schedule both collectors share.

The leading feed starts the schedule when its collector first asks for
a record; that instant ends set-up. Layer ``i`` is then due at
``t0 + i / rate`` (or at ``t0`` for a burst), whether or not the program
has kept up, and a layer's latency is counted from its due time.

Within one due instant the leading feed's record is handed over first
and the following feed's right after it. The benchmark leads with the
layer's process parameters and follows with its OT image, as on the
machine: the parameters are known before exposure, and the image is
complete only after it (the repo's lockstep harness, ``repro.bench``,
likewise paces only the OT source). Left to the two feed threads, the
order is a race, and the program's fuse join answers the two orders
with latencies 20 ms apart (see NOTES.md), which made the median flip
between runs. A fixed order makes every run see the same program path.

Under the distributed runtime the collectors run in forked workers, so
``t0`` and the generator lag live in an anonymous shared mapping that the
fork inherits; ``time.monotonic`` is one clock across the processes.
"""

from __future__ import annotations

import mmap
import struct
import time
from typing import Callable, Iterable, Iterator

from repro.am.dataset import LayerRecord

#: the feed whose record goes first at each due instant
LEAD = 0
#: the feed whose record follows the leading one's
FOLLOW = 1

_DOUBLE = struct.Struct("d")
# slot 0: t0 (0.0 until started); slots 1, 2: max lag per feed;
# slot 3: records the leading feed has handed over
_SLOTS = 4
_LEAD_SENT = 3
#: how long the following feed waits for the leading one before failing the run
WAIT_TIMEOUT_S = 60.0


class Schedule:
    """Paces record iterables on one shared open-loop clock."""

    def __init__(self, rate_layers_s: float | None) -> None:
        self.rate = rate_layers_s
        self._shared = mmap.mmap(-1, _DOUBLE.size * _SLOTS)
        self._on_start: list[Callable[[], None]] = []

    def on_start(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` in the leading feed's process when the schedule starts."""
        self._on_start.append(fn)

    def _get(self, slot: int) -> float:
        return _DOUBLE.unpack_from(self._shared, slot * _DOUBLE.size)[0]

    def _set(self, slot: int, value: float) -> None:
        _DOUBLE.pack_into(self._shared, slot * _DOUBLE.size, value)

    @property
    def started_at(self) -> float | None:
        """``t0`` on the monotonic clock, or None before the first pull."""
        t0 = self._get(0)
        return t0 if t0 > 0.0 else None

    def due(self, index: int) -> float:
        t0 = self._get(0)
        return t0 if self.rate is None else t0 + index / self.rate

    @property
    def lag_max_s(self) -> float:
        """How late, at worst, a record was handed over against its due time."""
        return max(self._get(1 + LEAD), self._get(1 + FOLLOW))

    def _wait_start(self, feed: int) -> float:
        if feed == LEAD:
            t0 = time.monotonic()
            self._set(0, t0)
            for fn in self._on_start:
                fn()
            return t0
        self._wait(lambda: self._get(0) > 0.0, "the leading collector never started")
        return self._get(0)

    @staticmethod
    def _wait(condition: Callable[[], bool], what: str) -> None:
        deadline = time.monotonic() + WAIT_TIMEOUT_S
        while not condition():
            if time.monotonic() > deadline:
                raise TimeoutError(what)
            time.sleep(0.0002)

    def feed(self, records: Iterable[LayerRecord], feed: int) -> Iterator[LayerRecord]:
        """Yield ``records`` no earlier than their due times."""
        t0 = self._wait_start(feed)
        rate = self.rate
        lag_max = 0.0
        for index, record in enumerate(records):
            due = t0 if rate is None else t0 + index / rate
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
                now = time.monotonic()
            if feed == FOLLOW:
                # the leading feed's record of this layer goes first
                self._wait(lambda: self._get(_LEAD_SENT) > index, "leading feed stalled")
                now = time.monotonic()
            if now - due > lag_max:
                lag_max = now - due
                self._set(1 + feed, lag_max)
            if feed == LEAD:
                self._set(_LEAD_SENT, index + 1)
            yield record
