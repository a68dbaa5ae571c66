"""Per-worker control and data queues — the Redis substitute.

The prototype uses Redis PUB/SUB and Lists: a *control queue* for
signalling and a *data queue* for gradients and weights (paper §4.2).
Here each worker owns one of each; the engine delivers messages into
them at the simulated arrival time and notifies the worker's handler.
A gradient waits in the data queue until the worker applies it and pops
it; the control queue parks opaque ``ControlMessage`` traffic (typed
control messages have their own handlers) until ``pop_control``.

Both queues are unbounded: a message is parked until its handler pops
it. The engine exports the depths through the
``queue_depth{worker,kind}`` gauge.
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["MessageQueues"]


class MessageQueues:
    """Control + data FIFO queues for one worker.

    ``push_*`` append a message; ``pop_*`` take the oldest one.
    """

    def __init__(self):
        self.control: deque[Any] = deque()
        self.data: deque[Any] = deque()

    def push_control(self, msg: Any) -> None:
        """Deliver a control message."""
        self.control.append(msg)

    def push_data(self, msg: Any) -> None:
        """Deliver a data message."""
        self.data.append(msg)

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
