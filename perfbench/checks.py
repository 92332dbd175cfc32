"""Output checks: every run verifies what the program printed or sent.

A mismatch raises :class:`CheckFailed`, which fails the run; it never
becomes a statistic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

_SECTION = re.compile(r"^(Table|Figure) \d+ \((E\d+)")
_STATS_HEADER = "-- campaign stats"
_EXCLUDED = {"E7"}  # prints wall-clock microseconds per step


class CheckFailed(AssertionError):
    """The program's output differs from what the benchmark expects."""


def expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def digest(value) -> str:
    """sha256 of a canonical JSON encoding (or of a string as is)."""
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def campaign_tables(stdout: str) -> dict[str, str]:
    """The ``experiment all`` tables by experiment id, stats excluded."""
    tables: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in stdout.splitlines():
        if line.startswith(_STATS_HEADER):
            break
        match = _SECTION.match(line)
        if match:
            current = tables.setdefault(match.group(2), [])
        if current is not None:
            current.append(line)
    return {exp: "\n".join(lines).rstrip() for exp, lines in tables.items()}


def campaign_digest(stdout: str) -> str:
    """Digest of the E1-E6 and E8-E14 tables; fails on a missing one."""
    tables = campaign_tables(stdout)
    wanted = [f"E{i}" for i in range(1, 15) if f"E{i}" not in _EXCLUDED]
    missing = [exp for exp in wanted if exp not in tables]
    if missing:
        raise CheckFailed(f"campaign output lacks tables {missing}")
    return digest("\n\n".join(tables[exp] for exp in wanted))


def campaign_counts(stdout: str) -> tuple[int, int]:
    """``(grid points attempted, points quarantined)`` from ``--stats``."""
    points = re.search(r"^grid points : (\d+)", stdout, re.M)
    if points is None:
        raise CheckFailed("campaign output lacks the --stats grid line")
    quarantined = re.search(r"^quarantined : (\d+)", stdout, re.M)
    return (int(points.group(1)),
            int(quarantined.group(1)) if quarantined else 0)


def check_equal(label: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r}")


def report_projection(report) -> dict:
    """The verdict-bearing fields of a ``CausalReport``, as plain data.

    The same projection as ``benchmarks/bench_probes._report_summary``,
    kept here so that the pins do not move when that script changes.
    """
    def conv(x):
        if x is None:
            return None
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            return {f.name: conv(getattr(x, f.name))
                    for f in dataclasses.fields(x)}
        if isinstance(x, dict):
            return {k: conv(v) for k, v in sorted(x.items())}
        if isinstance(x, (list, tuple)):
            return [conv(v) for v in x]
        return x

    return {
        f: conv(getattr(report, f))
        for f in ("fired", "violated", "necessary", "background", "window",
                  "channels", "magnitude", "margin_deltas", "probes",
                  "minimal_verified")
    }


def wire_form(verdict: dict) -> dict:
    """A verdict dict as it looks after a JSON frame round-trip."""
    return json.loads(json.dumps(verdict))


def check_verdict(session_id: str, got: dict | None, want: dict) -> None:
    if got is None:
        raise CheckFailed(f"session {session_id}: no verdict")
    if got != want:
        raise CheckFailed(
            f"session {session_id}: verdict differs from offline scoring")
