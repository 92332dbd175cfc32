"""``ADASSURE_*`` environment knobs, parsed one way.

A malformed value fails loudly instead of silently becoming the
default: ``ADASSURE_BATCH_LANES=lots`` is a typo to report, not a
request for 64 lanes, and ``ADASSURE_CACHE=disable`` is not "on".
Unset and empty variables mean the default.

The module imports nothing from the package, so the run cache and the
service's session store share :func:`default_cache_dir` without either
pulling in the other's dependencies.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["default_cache_dir", "env_flag", "env_number"]


def default_cache_dir() -> Path:
    """``$ADASSURE_CACHE_DIR``, else ``~/.cache/adassure``."""
    env = os.environ.get("ADASSURE_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "adassure"


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


_FLAG_VALUES = {"1": True, "on": True, "true": True, "yes": True,
                "0": False, "off": False, "false": False, "no": False}


def env_flag(name: str, default: bool) -> bool:
    """``$name`` as a switch: ``1``/``0``, ``on``/``off``, ``true``/``false``
    or ``yes``/``no`` in any case, or ``default`` when the variable is
    unset or blank.

    Raises:
        ValueError: any other value; the message names the variable and
            the value.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return _FLAG_VALUES[raw.lower()]
    except KeyError:
        raise ValueError(
            f"{name}={raw!r} is not a switch (use 1/0, on/off, true/false "
            "or yes/no)") from None
