"""Tracer arithmetic, by-name rebinding and restore."""

import asyncio
import sys
import types

import pytest

from perfbench import tracer as tracer_mod
from perfbench.tracer import Tracer


class FakeClock:
    """``perf_counter_ns`` stand-in advanced by the code under test."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod, "_now", fake)
    return fake


def test_nested_self_time(clock):
    t = Tracer()

    def leaf():
        clock.advance(30)

    def middle():
        clock.advance(5)
        leaf_w()
        clock.advance(5)
        leaf_w()

    def outer():
        clock.advance(100)
        middle_w()

    leaf_w = t.wrap(leaf, "leaf")
    middle_w = t.wrap(middle, "middle")
    outer_w = t.wrap(outer, "outer")
    outer_w()

    assert t.self_ns == {"leaf": 60, "middle": 10, "outer": 100}
    assert t.calls == {"leaf": 2, "middle": 1, "outer": 1}
    # Self times add up to the outermost span's duration.
    assert sum(t.self_ns.values()) == clock.now


def test_untimed_frames_between_spans_count_as_parent_self_time(clock):
    t = Tracer()
    leaf_w = t.wrap(lambda: clock.advance(7), "leaf")

    def untimed_helper():
        clock.advance(3)
        leaf_w()

    t.wrap(untimed_helper, "outer")()
    assert t.self_ns == {"leaf": 7, "outer": 3}


def test_same_layer_recursion_counts_once(clock):
    t = Tracer()

    def fact(n):
        clock.advance(1)
        return 1 if n <= 1 else n * fact_w(n - 1)

    fact_w = t.wrap(fact, "fact")
    assert fact_w(5) == 120
    assert t.calls["fact"] == 1
    assert t.self_ns["fact"] == 5


def test_exception_still_closes_span(clock):
    t = Tracer()

    def boom():
        clock.advance(4)
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap(boom, "boom")()
    assert t.self_ns["boom"] == 4
    assert t._current.get() is None


def test_dynamic_layer_name(clock):
    t = Tracer()

    class Check:
        def __init__(self, aid):
            self.assertion_id = aid

        def evaluate(self):
            clock.advance(2)

    t.install_method(Check, "evaluate",
                     lambda args: f"check.{args[0].assertion_id}")
    Check("A1").evaluate()
    Check("A2").evaluate()
    Check("A2").evaluate()
    assert t.self_ns == {"check.A1": 2, "check.A2": 4}
    t.restore()


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")
    outside = types.ModuleType("otherpkg")

    def work():
        return "done"

    lib.work = work
    user.work = work          # from fakepkg.lib import work
    user.alias = work         # from fakepkg.lib import work as alias
    outside.work = work       # another package: left alone
    return {"fakepkg": pkg, "fakepkg.lib": lib, "fakepkg.user": user,
            "otherpkg": outside}, work


def test_install_function_rebinds_by_name_imports_and_restores(monkeypatch):
    modules, original = _fake_package()
    for name, mod in modules.items():
        monkeypatch.setitem(sys.modules, name, mod)
    t = Tracer(packages=("fakepkg",))
    t.install_function(modules["fakepkg.lib"], "work", "lib.work")

    lib, user = modules["fakepkg.lib"], modules["fakepkg.user"]
    assert lib.work is not original
    assert user.work is lib.work and user.alias is lib.work
    assert modules["otherpkg"].work is original
    assert user.work() == "done" and user.alias() == "done"
    assert t.calls["lib.work"] == 2

    t.restore()
    assert lib.work is original
    assert user.work is original and user.alias is original


def test_install_method_handles_classmethods_and_restores(clock):
    class Trace:
        @classmethod
        def build(cls, n):
            clock.advance(n)
            return cls

        def plain(self):
            clock.advance(1)

    raw_build = Trace.__dict__["build"]
    raw_plain = Trace.__dict__["plain"]
    t = Tracer()
    t.install_method(Trace, "build", "emit")
    t.install_method(Trace, "plain", "plain")
    assert isinstance(Trace.__dict__["build"], classmethod)
    assert Trace.build(3) is Trace
    Trace().plain()
    assert t.self_ns == {"emit": 3, "plain": 1}

    t.restore()
    assert Trace.__dict__["build"] is raw_build
    assert Trace.__dict__["plain"] is raw_plain


def test_awaited_coroutine_span_includes_waiting():
    t = Tracer()

    async def score():
        await asyncio.sleep(0.05)
        return 1

    assert asyncio.run(t.wrap(score, "score", awaited=True)()) == 1
    assert t.self_ns["score"] >= 40_000_000
    assert t.calls["score"] == 1


def test_busy_coroutine_counts_steps_not_waiting():
    t = Tracer()

    async def read():
        await asyncio.sleep(0.05)
        return "frame"

    assert asyncio.run(t.wrap(read, "frame")()) == "frame"
    assert t.calls["frame"] == 1
    assert t.self_ns["frame"] < 20_000_000


def test_busy_coroutine_under_wait_for_and_cancellation():
    t = Tracer()

    async def read():
        await asyncio.sleep(10)

    async def main():
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(t.wrap(read, "frame")(), 0.01)

    asyncio.run(main())
    assert t.calls["frame"] == 1


def test_concurrent_tasks_are_not_each_others_children():
    t = Tracer()

    async def score():
        await asyncio.sleep(0.05)

    def cpu():
        total = 0
        for i in range(200_000):
            total += i
        return total

    score_w = t.wrap(score, "score", awaited=True)
    cpu_w = t.wrap(cpu, "cpu")

    async def busy_task():
        await asyncio.sleep(0.01)
        cpu_w()

    async def main():
        await asyncio.gather(score_w(), busy_task())

    asyncio.run(main())
    # The cpu span ran while score was awaiting in another task; it must
    # not be subtracted from score's span.
    assert t.self_ns["score"] >= 45_000_000


def test_flush_after_writes_only_in_forked_children(tmp_path):
    t = Tracer()
    calls = []
    flushed = t.flush_after(lambda: calls.append(1))
    flushed()
    assert calls == [1] and not list(tmp_path.iterdir())
    t._flush_path = tmp_path / "layers-1.json"
    flushed()
    assert (tmp_path / "layers-1.json").is_file()
