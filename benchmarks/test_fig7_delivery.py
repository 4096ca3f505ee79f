"""Figure 7: packet delivery rate vs pause time.

Paper claims (§4C): delivery rate exceeds 99% for all three protocols
at every pause time and both speeds (with GAF privileged by Model 1's
always-active destinations) — ECGRID's sleeping does not lose packets.
"""

import pytest

from repro.api import figure

from conftest import SCALE, SEED, run_once

PAUSES = [0.0, 40.0, 80.0, 120.0]


@pytest.mark.parametrize("speed", [1.0, 10.0], ids=["1mps", "10mps"])
def test_fig7_delivery_vs_pause(benchmark, speed):
    fig = run_once(
        benchmark, figure, "fig7",
        speed=speed, scale=SCALE, seed=SEED, pauses=PAUSES,
    )
    print()
    print(fig.to_text())

    series = fig.series
    # Routed protocols deliver the overwhelming majority everywhere.
    # (The paper reports >99% on ns-2's finer MAC; our coarser CSMA and
    # scaled density cost a few points.)
    for proto in ("grid", "ecgrid"):
        for pause, rate in series[proto]:
            assert rate > 85.0, (proto, pause, rate)
    for pause, rate in series["gaf"]:
        assert rate > 60.0, ("gaf", pause, rate)

    # ECGRID's sleeping does not lose packets relative to GRID: the two
    # stay within a few points of each other at every pause time.
    grid_by_pause = dict(series["grid"])
    for pause, rate in series["ecgrid"]:
        assert abs(rate - grid_by_pause[pause]) < 12.0

    means = {
        proto: sum(y for _, y in pts) / len(pts)
        for proto, pts in series.items()
    }
    benchmark.extra_info.update(
        {f"delivery_pct_{p}": round(v, 2) for p, v in means.items()}
    )
