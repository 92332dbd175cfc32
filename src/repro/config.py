"""Numeric ``ADASSURE_*`` environment knobs, parsed one way.

A malformed value fails loudly instead of silently becoming the default:
``ADASSURE_BATCH_LANES=lots`` is a typo to report, not a request for 64
lanes.  Unset and empty variables mean the default.
"""

from __future__ import annotations

import os

__all__ = ["env_number"]


def env_number(name: str, default, kind: type = int):
    """``$name`` parsed as ``kind`` (``int`` or ``float``), or ``default``
    when the variable is unset or blank.

    Raises:
        ValueError: the value does not parse; the message names the
            variable and the value.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(
            f"{name}={raw!r} is not a valid {kind.__name__}") from None
