"""Correctness checks computed apart from the program under test.

Every check takes plain arrays (node ids, positions, edge pairs) and
re-derives what it needs with numpy and scipy — never with ``repro`` —
so a fault in the program cannot also hide in its oracle.  Each returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree


def _ranks(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Positions of ``values`` in the ascending ``ids``."""
    return np.searchsorted(ids, values)


def edge_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """Sorted unique undirected keys ``min * n + max`` of rank pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    return np.unique(lo * n + hi)


def _adjacency(n: int, pairs: np.ndarray):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.ones(rows.shape[0], dtype=np.int8)
    return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def giant_component(n: int, pairs: np.ndarray) -> np.ndarray:
    """Ranks of the largest connected component of a rank-pair graph."""
    _, label = connected_components(_adjacency(n, pairs), directed=False)
    return np.flatnonzero(label == np.bincount(label).argmax())


def unit_disk_pairs(points: np.ndarray, radius: float) -> np.ndarray:
    """All index pairs within ``radius``, from scipy's k-d tree."""
    return cKDTree(np.asarray(points, dtype=float)).query_pairs(
        radius, output_type="ndarray")


def edge_problems(ids: np.ndarray, edges: np.ndarray,
                  expected: np.ndarray) -> List[str]:
    """The program's edges must equal ``expected`` (both id pairs).

    ``expected`` comes from :func:`unit_disk_pairs` on the positions.
    """
    n = len(ids)
    got = edge_keys(_ranks(ids, np.asarray(edges).reshape(-1, 2)), n)
    want = edge_keys(_ranks(ids, np.asarray(expected).reshape(-1, 2)), n)
    if got.shape == want.shape and np.array_equal(got, want):
        return []
    missing = np.setdiff1d(want, got).shape[0]
    extra = np.setdiff1d(got, want).shape[0]
    return [f"edge set differs from the k-d tree: {missing} missing, "
            f"{extra} extra"]


def lowest_id_problems(ids: np.ndarray, edges: np.ndarray,
                       head_of: np.ndarray) -> List[str]:
    """The lowest-ID rule, checked as a property of the output.

    A node is a head iff no smaller-id neighbour is a head, and a member
    joins its smallest-id neighbouring head.  The head set this
    characterises is unique (induction on id order), so the check is
    complete.  ``head_of[i]`` is the head id of node ``ids[i]``.
    """
    n = len(ids)
    pairs = _ranks(ids, np.asarray(edges).reshape(-1, 2))
    head_rank = _ranks(ids, np.asarray(head_of))
    if (head_rank >= n).any() or not np.array_equal(ids[head_rank], head_of):
        return ["head_of names nodes that are not in the graph"]
    is_head = head_rank == np.arange(n)
    # Smallest neighbouring head per node, over both edge directions.
    big = np.int64(n)
    min_head = np.full(n, big, dtype=np.int64)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    keep = is_head[src]
    np.minimum.at(min_head, dst[keep], src[keep])
    ranks = np.arange(n)
    problems = []
    wrong_role = is_head != (min_head > ranks)
    if wrong_role.any():
        problems.append(
            f"{int(wrong_role.sum())} nodes break 'head iff no smaller-id "
            f"neighbour is a head'")
    members = ~is_head
    wrong_head = members & (head_rank != min_head)
    if wrong_head.any():
        problems.append(
            f"{int(wrong_head.sum())} members did not join their smallest-id "
            f"neighbouring head")
    return problems


def cds_problems(ids: np.ndarray, edges: np.ndarray,
                 backbone: np.ndarray) -> List[str]:
    """``backbone`` must dominate the graph and be connected per component.

    On a disconnected graph each component must hold a connected,
    dominating share of the backbone (the backbone of a component).
    """
    n = len(ids)
    pairs = _ranks(ids, np.asarray(edges).reshape(-1, 2))
    in_b = np.zeros(n, dtype=bool)
    in_b[_ranks(ids, np.asarray(backbone, dtype=np.int64))] = True
    problems = []
    dominated = in_b.copy()
    dominated[pairs[in_b[pairs[:, 0]], 1]] = True
    dominated[pairs[in_b[pairs[:, 1]], 0]] = True
    if not dominated.all():
        problems.append(f"{int((~dominated).sum())} nodes are not dominated")
    n_comp, _ = connected_components(_adjacency(n, pairs), directed=False)
    inner = pairs[in_b[pairs[:, 0]] & in_b[pairs[:, 1]]]
    b_rows = np.flatnonzero(in_b)
    sub = np.searchsorted(b_rows, inner)
    n_b_comp, _ = connected_components(
        _adjacency(b_rows.shape[0], sub), directed=False)
    if n_b_comp != n_comp:
        problems.append(
            f"backbone splits into {n_b_comp} pieces over {n_comp} "
            f"graph components")
    return problems


def forwarding_problems(ids: np.ndarray, edges: np.ndarray, source: int,
                        forwarders: np.ndarray) -> List[str]:
    """Source plus forwarders: connected, covering the source's component.

    That is what full delivery under unit-delay forwarding needs: the
    packet travels only along forwarders, and every node of the component
    must hear one of them.
    """
    n = len(ids)
    pairs = _ranks(ids, np.asarray(edges).reshape(-1, 2))
    adj = _adjacency(n, pairs)
    _, label = connected_components(adj, directed=False)
    s = int(_ranks(ids, np.array([source]))[0])
    comp = label == label[s]
    in_f = np.zeros(n, dtype=bool)
    in_f[_ranks(ids, np.asarray(forwarders, dtype=np.int64))] = True
    in_f[s] = True
    problems = []
    if (in_f & ~comp).any():
        problems.append("forwarders outside the source's component")
    heard = in_f.copy()
    heard[pairs[in_f[pairs[:, 0]], 1]] = True
    heard[pairs[in_f[pairs[:, 1]], 0]] = True
    if (comp & ~heard).any():
        problems.append(
            f"{int((comp & ~heard).sum())} nodes hear no forwarder")
    f_rows = np.flatnonzero(in_f)
    inner = pairs[in_f[pairs[:, 0]] & in_f[pairs[:, 1]]]
    n_f_comp, _ = connected_components(
        _adjacency(f_rows.shape[0], np.searchsorted(f_rows, inner)),
        directed=False)
    if n_f_comp != 1:
        problems.append(f"forward set splits into {n_f_comp} pieces")
    return problems


def link_change_problems(before: np.ndarray, after: np.ndarray,
                         radius: float, reported: int) -> List[str]:
    """``reported`` must equal the symmetric difference of two edge sets.

    Both edge sets are recomputed from the positions (rows in the same
    order at both ticks) with the k-d tree.
    """
    n = len(before)
    old = edge_keys(unit_disk_pairs(before, radius), n)
    new = edge_keys(unit_disk_pairs(after, radius), n)
    want = int(np.setxor1d(old, new, assume_unique=True).shape[0])
    if want != int(reported):
        return [f"link_changes {reported} but the k-d tree edge sets differ "
                f"by {want}"]
    return []


def figure_problems(tables: dict, orderings, *, confidence: float,
                    target: float, min_samples: int) -> List[str]:
    """Stopping rule and the paper's Section 4 orderings, per point.

    ``tables`` maps degree to ``{label: [(x, mean, half_width, samples,
    confidence)]}``; ``orderings`` lists ``(lower, higher)`` label pairs
    whose means must satisfy ``lower <= higher`` at every point.
    """
    problems = []
    for d, series in tables.items():
        for label, points in series.items():
            for x, mean, half, samples, conf in points:
                if samples < min_samples:
                    problems.append(f"d={d} n={x} {label}: {samples} trials")
                if conf != confidence:
                    problems.append(f"d={d} n={x} {label}: confidence {conf}")
                if not (mean > 0 and half / mean <= target):
                    problems.append(
                        f"d={d} n={x} {label}: half-width {half} of {mean}")
        for lower, higher in orderings:
            if lower not in series or higher not in series:
                problems.append(f"d={d}: missing {lower} or {higher}")
                continue
            for (x, lo, *_), (_, hi, *_) in zip(series[lower], series[higher]):
                if lo > hi:
                    problems.append(
                        f"d={d} n={x}: {lower} {lo:.3f} > {higher} {hi:.3f}")
    return problems


def result_problems(served: object, oracle: object,
                    path: Optional[str] = "result") -> List[str]:
    """Exact structural equality of two JSON values, naming the first diff."""
    if isinstance(oracle, dict):
        if not isinstance(served, dict) or set(served) != set(oracle):
            return [f"{path}: keys differ"]
        for key in sorted(oracle):
            found = result_problems(served[key], oracle[key], f"{path}.{key}")
            if found:
                return found
        return []
    if isinstance(oracle, list):
        if not isinstance(served, list) or len(served) != len(oracle):
            return [f"{path}: lengths differ"]
        for i, (a, b) in enumerate(zip(served, oracle)):
            found = result_problems(a, b, f"{path}[{i}]")
            if found:
                return found
        return []
    if served != oracle or type(served) is not type(oracle):
        return [f"{path}: served {served!r} != serial {oracle!r}"]
    return []
