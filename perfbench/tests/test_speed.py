"""Host-speed scaling arithmetic and the probe's thread lifecycle."""

import os

import pytest

from perfbench import speed


def test_at_ref_scales_by_the_window_mean():
    probe = speed.SpeedProbe([])
    ref = speed.REFERENCE_S
    # twice as slow as the reference in [10, 12], at the reference later
    probe.samples = [(10.0, 2 * ref), (11.0, 2 * ref), (12.0, 2 * ref),
                     (20.0, ref), (21.0, ref)]
    assert probe.at_ref(10.0, 12.0) == pytest.approx(1.0)
    assert probe.at_ref(20.0, 21.0) == pytest.approx(1.0)
    # a window with no sample of its own uses the ones within the pad
    assert probe.at_ref(21.05, 21.06) == pytest.approx(0.01)


def test_at_ref_refuses_a_window_without_samples():
    probe = speed.SpeedProbe([])
    probe.samples = [(10.0, speed.REFERENCE_S)]
    with pytest.raises(RuntimeError):
        probe.at_ref(30.0, 31.0)


def test_probe_samples_while_running_and_stops():
    cpu = max(os.sched_getaffinity(0))
    with speed.SpeedProbe([cpu]) as probe:
        while len(probe.samples) < 3:
            pass
    assert not any(t.is_alive() for t in probe._threads)
    assert all(cpu_s > 0 for _, cpu_s in probe.samples)
