"""Child processes: launch, time, measure memory, and reap them.

Linux only: peak memory and the process tree come from ``/proc``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent / "launch.py"


@dataclass
class Pass:
    """One finished CLI invocation."""

    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    start: float = 0.0
    """``perf_counter`` at launch."""

    @property
    def window(self) -> tuple[float, float]:
        return self.start, self.start + self.wall_s


def command(cli_args: list[str], trace_dir: Path | None = None) -> list[str]:
    """``adassure <args>`` as a child command, traced when ``trace_dir``
    is given."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro.cli", *cli_args]
    return [sys.executable, str(LAUNCHER), str(trace_dir), *cli_args]


def run_pass(cli_args: list[str], env: dict, workdir: Path, *,
             trace_dir: Path | None = None, cpu: int | None = None,
             timeout_s: float = 150.0) -> Pass:
    """Run one CLI command to completion, pinned to ``cpu`` if given;
    wall time and peak RSS.

    Peak RSS is the child's ``ru_maxrss`` from ``wait4``, which covers
    the largest process of its tree that it reaped.
    """
    out_path, err_path = workdir / "pass.out", workdir / "pass.err"
    # The child inherits this thread's CPU set (``preexec_fn`` is unsafe
    # while the speed probe's threads run).
    allowed = os.sched_getaffinity(0)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(command(cli_args, trace_dir), env=env,
                                    stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
        finally:
            os.sched_setaffinity(0, allowed)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"), t0)


def children(pid: int) -> list[int]:
    """Direct children of ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rpartition(")")[2].split()
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident sizes (``VmHWM``) of live processes."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Server:
    """An ``adassure serve`` child on an ephemeral port."""

    def __init__(self, store_dir: Path, env: dict, *,
                 trace_dir: Path | None = None):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            command(["serve", "--port", "0", "--store-dir", str(store_dir)],
                    trace_dir),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL, text=True)
        self.port: int | None = None
        self.ready_s: float | None = None

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Block until the server prints its listening line; returns the
        time from launch."""
        timer = threading.Timer(timeout_s, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if line.startswith("listening on "):
                    self.ready_s = time.perf_counter() - self.t0
                    address = line.split()[2]
                    self.port = int(address.rpartition(":")[2])
                    return self.ready_s
        finally:
            timer.cancel()
        raise RuntimeError("server exited before listening")

    def stop(self, timeout_s: float = 30.0) -> list[int]:
        """SIGINT the server and reap it; returns the PIDs of its children
        that outlived it (already killed, so nothing is left behind)."""
        kids = children(self.proc.pid)
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        deadline = time.monotonic() + 5.0
        while any(alive(pid) for pid in kids) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in kids if alive(pid)]
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while any(alive(pid) for pid in orphans):
            time.sleep(0.05)
        return orphans
