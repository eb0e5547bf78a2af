"""Public API surface checks: imports, exports, version, and the
README quickstart path."""

import importlib

import pytest


PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.churn",
    "repro.scenarios",
    "repro.monitor",
    "repro.overlays",
    "repro.ops",
    "repro.attacks",
    "repro.experiments",
    "repro.util",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), package
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_top_level_has_orchestrator(self):
        from repro import AvmemSimulation, SimulationSettings

        assert callable(AvmemSimulation)
        assert callable(SimulationSettings)

    def test_top_level_surface_is_pinned(self):
        """``repro.__all__`` exactly: the surface only changes on purpose
        (PR 13 removed ``MembershipLists``)."""
        import repro

        assert sorted(repro.__all__) == [
            "AvailabilityPdf", "AvmemConfig", "AvmemNode", "AvmemPredicate",
            "AvmemSimulation", "MemberEntry", "MembershipTable", "NodeDescriptor",
            "NodeId", "SimulationSettings", "SliverKind", "SliverSelector",
            "__version__", "make_node_ids", "paper_predicate",
            "random_overlay_predicate",
        ]

    def test_sim_surface_is_pinned(self):
        """``repro.sim.__all__`` exactly: the substrate is the engine,
        the network and the latency models, nothing else."""
        import repro.sim

        assert sorted(repro.sim.__all__) == [
            "AlwaysOnline", "ConstantLatency", "DropReason", "Envelope",
            "LatencyModel", "LogNormalLatency", "Network", "NetworkStats",
            "PAPER_HOP_LATENCY", "PeriodicTask", "PresenceOracle",
            "ScheduledEvent", "SimulationError", "Simulator", "UniformLatency",
        ]

    def test_package_imports_without_networkx(self):
        """networkx is a test-only oracle: importing the package, its
        overlay layer and the CLI must not pull it in."""
        import subprocess
        import sys

        code = (
            "import sys, repro, repro.overlays, repro.cli; "
            "assert 'networkx' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_no_duplicate_exports(self):
        for package in PACKAGES:
            module = importlib.import_module(package)
            assert len(module.__all__) == len(set(module.__all__)), package


class TestReadmeQuickstartPath:
    """The exact call sequence the README shows must work."""

    def test_quickstart_sequence(self):
        from repro import AvmemSimulation, SimulationSettings

        sim = AvmemSimulation(
            SimulationSettings(hosts=60, epochs=24, seed=7, protocols="off")
        )
        sim.setup(warmup=12600.0, settle=0.0)
        from repro.ops import OperationItem, OperationPlan, TargetSpec

        plan = OperationPlan(items=(
            OperationItem(kind="anycast", target=TargetSpec.range(0.5, 1.0),
                          band="mid", policy="retry-greedy"),
            OperationItem(kind="multicast", target=TargetSpec.threshold(0.3),
                          band="high", mode="flood"),
        ))
        execution = sim.ops.execute(plan)
        rec, mc = execution.records
        assert rec.status is not None
        assert mc.reliability() == mc.reliability() or True  # NaN-safe read
        assert mc.spam_ratio() is not None or True
        assert len(execution.log) == 2
