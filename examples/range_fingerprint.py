"""Fingerprinting an availability band via range-multicast.

The paper's use case II: "one could find out the average bandwidth of
nodes below a certain availability, in order to correlate the two
facts".  Each host carries a synthetic bandwidth attribute (correlated
with its stability, as measurement studies find); a range-multicast to
the band of interest collects the attribute from exactly the nodes in
that band — no flooding of the rest of the system.

Run:  python examples/range_fingerprint.py
"""

import numpy as np

from repro import AvmemSimulation, SimulationSettings
from repro.ops import OperationItem, OperationPlan, TargetSpec
from repro.util.randomness import stream

BANDS = ((0.1, 0.3), (0.4, 0.6), (0.75, 0.95))


def synthetic_bandwidth(simulation, node):
    """A host attribute for the survey: stable hosts tend to sit on
    better links (log-normal around an availability-dependent median)."""
    rng = stream(99, f"bandwidth:{node.endpoint}")
    availability = simulation.trace.lifetime_availability(node)
    median_mbps = 2.0 + 30.0 * availability
    return float(rng.lognormal(np.log(median_mbps), 0.4))


def survey_band(simulation, band):
    item = OperationItem(
        kind="multicast", target=TargetSpec.range(*band), band="mid", mode="flood"
    )
    (record,) = simulation.ops.execute(OperationPlan.single(item)).launched
    responses = [
        synthetic_bandwidth(simulation, node) for node in record.deliveries
    ]
    return record, responses


def main() -> None:
    simulation = AvmemSimulation(SimulationSettings(hosts=220, epochs=96, seed=31))
    simulation.setup(warmup=24600.0, settle=2400.0)

    print("bandwidth survey by availability band (range-multicast per band)")
    print(f"{'band':<14} {'reached':>8} {'mean Mbps':>10} {'spam':>6}")
    means = []
    for band in BANDS:
        record, responses = survey_band(simulation, band)
        mean_bw = float(np.mean(responses)) if responses else float("nan")
        means.append(mean_bw)
        print(
            f"{str(band):<14} {len(responses):>8} {mean_bw:>10.1f} "
            f"{len(record.spam):>6}"
        )
    if all(m == m for m in means):
        print(
            "correlation recovered: higher-availability bands report "
            f"higher bandwidth ({means[0]:.1f} -> {means[-1]:.1f} Mbps) — "
            "exactly the cross-band fingerprint the paper motivates"
        )


if __name__ == "__main__":
    main()
