"""The overlay as a :class:`networkx.DiGraph` (node attribute
``availability``, edge attribute ``kind``) — the general-graph-library
view that shipped as ``OverlayGraph.to_networkx``.  networkx is a
test-only oracle now: the CSR analytics are compared against its
independent degree / subgraph / connectivity answers."""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.core.predicates import SliverKind
from repro.overlays.graphs import OverlayGraph


def to_networkx(overlay: OverlayGraph) -> nx.DiGraph:
    graph = nx.DiGraph()
    for node, av in zip(overlay.ids, overlay.availabilities):
        graph.add_node(node, availability=float(av))
    ids_arr = overlay.id_array
    horizontal = np.asarray(overlay.horizontal)
    src_ids = ids_arr[overlay.src_indices]
    dst_ids = ids_arr[overlay.dst_indices]
    graph.add_edges_from(
        zip(src_ids[horizontal].tolist(), dst_ids[horizontal].tolist()),
        kind=SliverKind.HORIZONTAL,
    )
    vertical = ~horizontal
    graph.add_edges_from(
        zip(src_ids[vertical].tolist(), dst_ids[vertical].tolist()),
        kind=SliverKind.VERTICAL,
    )
    return graph
