"""Self-tests of the benchmark's checkers: each must reject a corrupted output.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The program produces the outputs; networkx serves as a second,
independent oracle for which corruptions really break a property.
"""

from __future__ import annotations

import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from repro.backbone.static_backbone import build_static_backbone  # noqa: E402
from repro.broadcast.sd_cds import broadcast_sd  # noqa: E402
from repro.cluster.lowest_id import lowest_id_clustering  # noqa: E402
from repro.graph.generators import random_geometric_network  # noqa: E402


@pytest.fixture(scope="module")
def sample():
    net = random_geometric_network(60, 8.0, rng=3)
    ids = np.array(sorted(net.graph.nodes()), dtype=np.int64)
    edges = np.array(net.graph.edges(), dtype=np.int64)
    pts = np.array([net.positions[v] for v in ids.tolist()])
    structure = lowest_id_clustering(net.graph)
    g = nx.Graph()
    g.add_nodes_from(ids.tolist())
    g.add_edges_from(edges.tolist())
    return net, ids, edges, pts, structure, g


def _is_cds(g, nodes) -> bool:
    return (nx.is_dominating_set(g, nodes)
            and nx.is_connected(g.subgraph(nodes)))


def test_program_outputs_pass(sample):
    net, ids, edges, pts, structure, _ = sample
    head_of = np.array([structure.head_of[v] for v in ids.tolist()])
    backbone = build_static_backbone(structure)
    assert checks.edge_problems(
        ids, edges, ids[checks.unit_disk_pairs(pts, net.radius)]) == []
    assert checks.lowest_id_problems(ids, edges, head_of) == []
    assert checks.cds_problems(ids, edges, sorted(backbone.nodes)) == []


def test_backbone_with_a_gateway_dropped_is_rejected(sample):
    _, ids, edges, _, structure, g = sample
    backbone = build_static_backbone(structure)
    rejected = 0
    for gateway in sorted(backbone.gateways):
        kept = sorted(backbone.nodes - {gateway})
        found = checks.cds_problems(ids, edges, kept)
        assert bool(found) == (not _is_cds(g, kept)), gateway
        rejected += bool(found)
    assert rejected, "no single gateway was essential; sample too easy"


def test_forward_set_with_a_relay_removed_is_rejected(sample):
    _, ids, edges, _, structure, g = sample
    source = int(ids[0])
    result = broadcast_sd(structure, source).result
    forwarders = set(result.forward_nodes)
    assert checks.forwarding_problems(ids, edges, source,
                                      sorted(forwarders)) == []
    rejected = 0
    for relay in sorted(forwarders - {source}):
        kept = forwarders - {relay}
        found = checks.forwarding_problems(ids, edges, source, sorted(kept))
        assert bool(found) == (not _is_cds(g, kept | {source})), relay
        rejected += bool(found)
    assert rejected


def test_lowest_id_violations_are_rejected(sample):
    _, ids, edges, _, structure, _ = sample
    head_of = np.array([structure.head_of[v] for v in ids.tolist()])
    heads = set(head_of.tolist())
    # A member moved to another neighbouring head that is not its smallest.
    g_adj = {v: set() for v in ids.tolist()}
    for u, v in edges.tolist():
        g_adj[u].add(v)
        g_adj[v].add(u)
    moved = None
    for i, v in enumerate(ids.tolist()):
        options = sorted(g_adj[v] & heads)
        if v not in heads and len(options) > 1:
            moved = head_of.copy()
            moved[i] = options[-1]
            break
    assert moved is not None
    assert checks.lowest_id_problems(ids, edges, moved)
    # A head demoted to member of a larger neighbour.
    demoted = head_of.copy()
    h = int(ids[0])
    demoted[0] = min(g_adj[h])
    assert checks.lowest_id_problems(ids, edges, demoted)


def test_mobility_tick_with_an_edge_missing_is_rejected(sample):
    net, ids, edges, pts, _, _ = sample
    expected = ids[checks.unit_disk_pairs(pts, net.radius)]
    assert checks.edge_problems(ids, edges[1:], expected)
    moved = pts + np.random.default_rng(1).normal(0, 2.0, pts.shape)
    n = len(ids)
    old = checks.edge_keys(checks.unit_disk_pairs(pts, net.radius), n)
    new = checks.edge_keys(checks.unit_disk_pairs(moved, net.radius), n)
    true_changes = np.setxor1d(old, new).shape[0]
    assert checks.link_change_problems(pts, moved, net.radius,
                                       true_changes) == []
    assert checks.link_change_problems(pts, moved, net.radius,
                                       true_changes - 1)


def test_served_result_with_a_mean_perturbed_is_rejected():
    oracle = {"tables": {"6": [{"n": 20.0, "series": "mo-cds",
                                "mean": 9.5, "half_width": 0.4}]}}
    served = {"tables": {"6": [dict(oracle["tables"]["6"][0])]}}
    assert checks.result_problems(served, oracle) == []
    served["tables"]["6"][0]["mean"] = float(np.nextafter(9.5, 10.0))
    assert checks.result_problems(served, oracle)


def test_figure_problems_reject_wide_intervals_and_inversions():
    good = {6.0: {"static": [(20, 10.0, 0.4, 30, 0.99)],
                  "mo-cds": [(20, 12.0, 0.5, 30, 0.99)]}}
    orderings = [("static", "mo-cds")]
    kwargs = dict(confidence=0.99, target=0.05, min_samples=30)
    assert checks.figure_problems(good, orderings, **kwargs) == []
    wide = {6.0: dict(good[6.0], static=[(20, 10.0, 0.6, 30, 0.99)])}
    assert checks.figure_problems(wide, orderings, **kwargs)
    short = {6.0: dict(good[6.0], static=[(20, 10.0, 0.4, 29, 0.99)])}
    assert checks.figure_problems(short, orderings, **kwargs)
    inverted = {6.0: dict(good[6.0], static=[(20, 12.5, 0.4, 30, 0.99)])}
    assert checks.figure_problems(inverted, orderings, **kwargs)
