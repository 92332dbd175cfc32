"""The server's verdict step: close a session's live monitor at FINISH.

Each session's pooled :class:`~repro.core.monitor.OnlineMonitor` has
stepped the whole catalog over every record as its chunks arrived (or
over the checkpointed log, when the session resumed).  The verdict only
has to finish it: close open episodes, run the end-of-trace checks, and
add diagnosis, onset and latency through
:func:`~repro.service.session.verdict_of`.  That costs about a
millisecond per session, so it runs on the event loop: no worker
process, no re-encoded trace, no second check.

The class keeps the name of the worker-process pool it replaced because
the benchmark's layer table (``perfbench/layers.py``) times
``ShardPool.score`` as the ``service.score`` layer.
"""

from __future__ import annotations

from repro.service.session import SessionState, verdict_of

__all__ = ["ShardPool"]


class ShardPool:
    """Builds each finished session's verdict from its own monitor."""

    async def score(self, session: SessionState) -> dict:
        """The verdict of ``session``'s record log, dict-equal to
        :func:`~repro.service.session.score_trace_bytes` on the same
        records."""
        trace = session.assemble_trace()
        return verdict_of(trace, session.monitor.finish(trace))
