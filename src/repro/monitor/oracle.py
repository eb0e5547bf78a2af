"""Oracle availability service: trace ground truth, optionally degraded.

The paper treats availability monitoring as a black box whose accuracy
and consistency bound AVMEM's behaviour.  The oracle reads fraction
uptime straight from the churn trace (raw from trace start, or over a
trailing window for "aged" availability) and can degrade its answers
with Gaussian noise and/or quantization — the knobs the Figs 5-6
staleness/inaccuracy experiments turn.

Noise is *deterministic per (node, time-bucket)* rather than per call:
a real monitoring service gives (roughly) the same wrong answer to
everyone who asks at about the same time, and that consistency matters
for verification experiments.  The whole bucket's noise vector is drawn
in one batch (seeded from the bucket index), which lets the scalar
:meth:`OracleAvailability.query` and the batched
:meth:`OracleAvailability.query_array` — the refresh hot path — give
matching answers while keeping the batch path free of per-node python.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.churn.trace import ChurnTrace
from repro.core.ids import NodeId
from repro.sim.engine import Simulator
from repro.util.randomness import stream
from repro.util.validation import check_non_negative, check_positive

__all__ = ["OracleAvailability"]


class OracleAvailability:
    """Availability estimates computed from the churn trace.

    Parameters
    ----------
    trace, sim:
        The ground truth and the clock.
    window:
        None → raw availability over ``[0, now]``; otherwise fraction
        uptime over the trailing ``window`` seconds.
    noise_std:
        Standard deviation of additive Gaussian error (0 = exact).
    quantization:
        Round estimates to this granularity (e.g. 0.01); 0 disables.
    noise_bucket:
        Time bucketing for deterministic noise, seconds.  Within one
        bucket every query for a node gets the same perturbation.
    min_observation:
        Before this much trace time has elapsed, estimates are unstable;
        the oracle still answers (with whatever it has), matching a
        freshly deployed monitoring service.
    """

    def __init__(
        self,
        trace: ChurnTrace,
        sim: Simulator,
        window: Optional[float] = None,
        noise_std: float = 0.0,
        quantization: float = 0.0,
        noise_bucket: float = 1200.0,
        seed: int = 0,
    ):
        self.trace = trace
        self.sim = sim
        self.window = None if window is None else check_positive(window, "window")
        self.noise_std = check_non_negative(noise_std, "noise_std")
        self.quantization = check_non_negative(quantization, "quantization")
        self.noise_bucket = check_positive(noise_bucket, "noise_bucket")
        self._seed = int(seed)
        #: bucket index -> per-node noise vector (index-aligned to the trace)
        self._noise_buckets: Dict[int, np.ndarray] = {}

    def query(self, node: NodeId) -> float:
        """Current (possibly noisy/quantized) availability of ``node``."""
        if node not in self.trace:
            raise KeyError(f"unknown node {node!r}")
        now = self.sim.now
        if self.window is None:
            value = self.trace.availability(node, now)
        else:
            value = self.trace.windowed_availability(node, now, self.window)
        if self.noise_std > 0.0:
            value += float(self._bucket_noise(now)[self.trace.index_of(node)])
        if self.quantization > 0.0:
            value = round(value / self.quantization) * self.quantization
        return float(min(1.0, max(0.0, value)))

    def query_array(self, nodes: Union[Sequence[NodeId], np.ndarray]) -> np.ndarray:
        """Batched :meth:`query`: one vectorized timeline pass for the
        whole batch (the refresh- and discovery-round hot path).

        ``nodes`` is a sequence of ids or an integer array of trace rows
        (what population-backed callers hold; no id is materialized).

        Answers match per-node :meth:`query` calls — same branch
        semantics, same per-bucket noise vector, same quantization and
        clamping — bit-for-bit on epoch-aligned traces, and to
        uptime-accumulation rounding (≲1e-10) on continuous-time ones.
        """
        if isinstance(nodes, np.ndarray) and nodes.dtype.kind in "iu":
            indices = nodes
        else:
            indices = self.trace.node_indices(nodes)  # KeyError on unknowns
        now = self.sim.now
        timeline = self.trace.timeline
        if self.window is None:
            values = timeline.availability_array(indices, now)
        else:
            values = timeline.windowed_availability_array(indices, now, self.window)
        if self.noise_std > 0.0:
            values = values + self._bucket_noise(now)[indices]
        if self.quantization > 0.0:
            values = np.round(values / self.quantization) * self.quantization
        return np.minimum(np.maximum(values, 0.0), 1.0)

    def true_availability(self, node: NodeId) -> float:
        """Undegraded availability (for experiment ground truth)."""
        if self.window is None:
            return self.trace.availability(node, self.sim.now)
        return self.trace.windowed_availability(node, self.sim.now, self.window)

    def _bucket_noise(self, now: float) -> np.ndarray:
        """The population noise vector for the bucket containing ``now``."""
        bucket = int(now / self.noise_bucket)
        cached = self._noise_buckets.get(bucket)
        if cached is None:
            # stream() == default_rng(derive_seed(...)): same generator,
            # same draws, routed through the sanctioned constructor.
            rng = stream(self._seed, f"oracle-noise-bucket:{bucket}")
            cached = rng.normal(0.0, self.noise_std, self.trace.node_count)
            if len(self._noise_buckets) > 64:
                self._noise_buckets.clear()
            self._noise_buckets[bucket] = cached
        return cached
