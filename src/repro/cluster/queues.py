"""Per-worker control and data queues — the Redis substitute.

The prototype uses Redis PUB/SUB and Lists: a *control queue* for
signalling and a *data queue* for gradients and weights (paper §4.2).
Here each worker owns one of each; the engine delivers messages into
them at the simulated arrival time and notifies the worker's handler.
A gradient waits in the data queue until the worker applies it and pops
it; the control queue parks opaque ``ControlMessage`` traffic (typed
control messages have their own handlers) until ``pop_control``.

Queues may be bounded (``capacity`` messages per queue, mirroring a
Redis ``LTRIM`` retention policy or a broker's max queue length): a
push into a full queue is rejected and counted in ``dropped_control`` /
``dropped_data``, so both the sim and the live backend surface
backpressure instead of buffering without limit. The engine exports the
depths and drop counts through the ``queue_depth{worker,kind}`` gauge
and ``queue_dropped_total{worker,kind}`` counter.
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["MessageQueues"]


class MessageQueues:
    """Control + data FIFO queues for one worker.

    ``capacity`` bounds each queue individually (``None`` = unbounded,
    the historical behaviour). ``push_*`` return ``False`` when the
    message was rejected by a full queue; ``pop_*`` take the oldest
    message and free its slot.
    """

    def __init__(self, owner: int, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.owner = owner
        self.capacity = capacity
        self.control: deque[Any] = deque()
        self.data: deque[Any] = deque()
        self.delivered_control = 0
        self.delivered_data = 0
        self.dropped_control = 0
        self.dropped_data = 0

    def push_control(self, msg: Any) -> bool:
        """Deliver a control message; False if the queue was full."""
        if self.capacity is not None and len(self.control) >= self.capacity:
            self.dropped_control += 1
            return False
        self.control.append(msg)
        self.delivered_control += 1
        return True

    def push_data(self, msg: Any) -> bool:
        """Deliver a data message; False if the queue was full."""
        if self.capacity is not None and len(self.data) >= self.capacity:
            self.dropped_data += 1
            return False
        self.data.append(msg)
        self.delivered_data += 1
        return True

    def pop_control(self) -> Any | None:
        """Dequeue the oldest control message (None if empty)."""
        return self.control.popleft() if self.control else None

    def pop_data(self) -> Any | None:
        """Dequeue the oldest data message (None if empty)."""
        return self.data.popleft() if self.data else None

    @property
    def control_depth(self) -> int:
        """Pending messages in the control queue."""
        return len(self.control)

    @property
    def data_depth(self) -> int:
        """Pending messages in the data queue."""
        return len(self.data)

    def __len__(self) -> int:
        return len(self.control) + len(self.data)
