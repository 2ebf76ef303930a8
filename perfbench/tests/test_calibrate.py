import pytest

import calibrate
from calibrate import NOMINAL_EVENTS_PER_S, Calibrator


def test_scale_takes_measured_time_to_the_nominal_machine():
    cal = Calibrator()
    # A machine at half the nominal speed: its seconds are worth half.
    cal.events = 1000
    cal.wall_s = cal.cpu_s = 2 * 1000 / NOMINAL_EVENTS_PER_S
    assert cal.wall_scale() == pytest.approx(0.5)
    assert cal.cpu_scale() == pytest.approx(0.5)
    # A cost measured there as 10 ms is 5 ms on the nominal machine.
    assert 0.010 * cal.cpu_scale() == pytest.approx(0.005)


def test_tick_slices_only_when_due():
    cal = Calibrator(period=3600.0, slice_events=10)
    cal.tick()
    assert cal.events == 0
    cal._due = 0.0
    cal.tick()
    assert cal.events == 10
    assert cal.wall_s > 0 and cal.cpu_s > 0


def test_reference_does_equal_work_per_call():
    # The kernel's queue stays full and bounded, so a short slice and a
    # long one do the same work per event.
    first = calibrate.reference(5)
    assert first == calibrate.reference(500) == calibrate._Kernel.QUEUE


@pytest.mark.parametrize("scheduler", ["wheel", "heap"])
def test_sliced_simulation_matches_one_run(scheduler):
    # Calibration ticks between virtual-time slices must not move an
    # event, so a sim episode stays bit-identical.
    from repro.simnet.simulator import Simulator

    import workloads

    def trace(cal):
        sim, fired = Simulator(scheduler), []

        def fire(k: int) -> None:
            fired.append((k, sim.now))
            if k < 1000:
                sim.schedule(0.0031 * (k % 7), fire, k + 200)

        for k in range(200):
            sim.schedule_at(k * 0.0137, fire, k)
        workloads._advance(sim, 2.0, cal, 0.05)
        return fired, sim.now

    assert trace(None) == trace(Calibrator(period=0.0, slice_events=1))
