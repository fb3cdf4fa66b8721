"""Ablation: SLB subtable sizing sweep (Section XI-C, Figure 14).

The paper sizes subtables from the Linux argument-count distribution.
This sweep quarters and quadruples the subtables and shows hit rates
respond monotonically, while the area model prices each point.
"""

from benchmarks.conftest import BENCH_EVENTS, run_once
from repro.analysis.hwcost import draco_hardware_costs
from repro.experiments import sweep as hw_sweep

SCALES = (0.25, 1.0, 4.0)


def _sweep(workload: str):
    points = hw_sweep.slb_scale_points(SCALES)
    observations = hw_sweep.sweep(workload, points, events=BENCH_EVENTS)
    return {
        scale: {
            "access_hit_rate": observation.slb_access_hit_rate,
            "slb_area_mm2": draco_hardware_costs(hw)["SLB"].area_mm2,
        }
        for scale, (_, hw, _), observation in zip(SCALES, points, observations)
    }


def test_slb_sizing_sweep(benchmark):
    sweep = run_once(benchmark, _sweep, "redis")

    # Hit rate grows with capacity...
    assert sweep[0.25]["access_hit_rate"] <= sweep[1.0]["access_hit_rate"]
    assert sweep[1.0]["access_hit_rate"] <= sweep[4.0]["access_hit_rate"] + 0.01
    # ...and so does silicon area.
    assert sweep[0.25]["slb_area_mm2"] < sweep[1.0]["slb_area_mm2"] < sweep[4.0]["slb_area_mm2"]
    # The paper's design point already captures most of the benefit.
    assert sweep[1.0]["access_hit_rate"] > 0.6
