"""Re-indexable per-lane state: the fork primitive of the batch engine.

Every batched component keeps its per-lane parameters and state as arrays
whose first axis is the lane.  When :func:`~repro.sim.batch.run_batch`
forks a lane off a shared-prefix slot, or drops a slot no lane needs any
more, each component is re-indexed with one :meth:`LaneState.take` call;
a memoized prefix snapshot re-enters a running group through
:meth:`LaneState.concat`.  Both always return fresh arrays, so a snapshot
never aliases state that the loop mutates in place.
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = ["LaneState"]


class LaneState:
    """Mixin: ``_LANE_FIELDS`` name the attributes indexed by lane."""

    _LANE_FIELDS: tuple[str, ...] = ()
    n: int

    def take(self, index) -> "LaneState":
        """A copy holding lanes ``index`` (repeats allowed), in that order."""
        index = np.asarray(index, dtype=np.int64)
        new = copy.copy(self)
        for name in self._LANE_FIELDS:
            setattr(new, name, getattr(self, name)[index])
        new.n = len(index)
        return new

    def concat(self, other: "LaneState") -> "LaneState":
        """A copy holding this object's lanes followed by ``other``'s."""
        new = copy.copy(self)
        for name in self._LANE_FIELDS:
            setattr(new, name, np.concatenate(
                [getattr(self, name), getattr(other, name)]))
        new.n = self.n + other.n
        return new
