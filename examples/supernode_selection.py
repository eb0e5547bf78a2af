"""Supernode selection via threshold-anycast.

The paper's motivating control operation: "selecting a supernode in a
p2p system with a minimal threshold availability" (Section 1, use
case I).  Any node — here deliberately *low-availability* initiators —
can anycast to ``availability > b`` and obtain a stable host, without
any central registry and without being able to spam the stable
population (the predicate is consistent and verifiable).

Run:  python examples/supernode_selection.py
"""

from collections import Counter

from repro import AvmemSimulation, SimulationSettings
from repro.ops import OperationItem, OperationPlan, OperationTiming, TargetSpec

SUPERNODE_THRESHOLD = 0.90
ELECTIONS = 20


def main() -> None:
    simulation = AvmemSimulation(SimulationSettings(hosts=220, epochs=96, seed=11))
    simulation.setup(warmup=24600.0, settle=2400.0)

    print(f"electing supernodes with availability > {SUPERNODE_THRESHOLD}")
    election = OperationItem(
        kind="anycast",
        target=TargetSpec.threshold(SUPERNODE_THRESHOLD),
        count=ELECTIONS,
        band="low",  # flaky nodes asking for stable ones
        policy="retry-greedy",
        timing=OperationTiming(mode="interval", spacing=10.0),
    )
    execution = simulation.ops.execute(OperationPlan.single(election, settle=10.0))
    chosen = Counter()
    failures = ELECTIONS - len(execution.launched)  # no low-band node online
    for record in execution.launched:
        if record.delivered:
            chosen[record.delivery_node] += 1
        else:
            failures += 1

    print(f"elections: {ELECTIONS}, failed: {failures}")
    print("selected supernodes (node: times chosen, true availability):")
    for node, count in chosen.most_common():
        availability = simulation.true_availability(node)
        print(f"  {node}: {count}x  av={availability:.2f}")
        assert availability > SUPERNODE_THRESHOLD - 0.15, (
            "selected node should be near/above the threshold "
            "(small slack for estimate drift)"
        )
    distinct = len(chosen)
    print(
        f"{distinct} distinct supernodes over {ELECTIONS - failures} successes — "
        "randomized forwarding spreads load instead of thundering-herding one host"
    )


if __name__ == "__main__":
    main()
