"""The four benchmark workloads.

A workload runs in rounds.  ``begin_round`` prepares a round outside the
timed region, ``op`` is one timed operation (it returns the work units it
completed and an output to check), ``collect`` keeps what the checks
need, again untimed, and ``check`` runs the independent checks of
:mod:`checks` after the timed loop.  Every input is drawn from the
``--seed`` argument; the program only receives the drawn inputs.

``trace_points`` names the public functions a traced run wraps, at the
attribute the op reaches them through, and the per-layer metric each
span's self time is added to.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks

SRC = Path("src")


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) & 0xFFFFFFFF for k in key])


def _count(name: str, value=lambda args, result: 1.0):
    """An ``on_return`` hook adding ``value(args, result)`` to ``name``."""
    def hook(tracer, args, kwargs, result):
        tracer.count(name, float(value(args, result)))
    return hook


def _mib(*arrays: np.ndarray) -> float:
    return sum(a.nbytes for a in arrays) / 2 ** 20


def _csr_edges(csr) -> np.ndarray:
    """``(m, 2)`` id pairs of a CSR graph, each undirected edge once."""
    rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
    cols = csr.indices.astype(np.int64)
    keep = rows < cols
    ids = csr.ids
    return np.stack([ids[rows[keep]], ids[cols[keep]]], axis=1)


class Workload:
    """Defaults shared by the in-process workloads."""

    name = ""
    #: What one work unit of ``work_per_s`` is.
    unit = ""
    ops_per_round = 1
    #: Set by the runner while a traced op runs.
    tracer = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Imports and warm-up; everything before the first timed op."""

    def begin_round(self, r: int) -> None:
        """Untimed preparation of round ``r``."""

    def end_round(self, r: int) -> None:
        """Untimed cleanup after round ``r``."""

    def collect(self, r: int, i: int, output) -> None:
        """Keep what :meth:`check` needs from one op's output (untimed)."""

    def trace_points(self) -> list:
        return []

    def layer_metrics(self, tracer, ops: int) -> Dict[str, float]:
        """Workload-specific per-layer values derived from the trace."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    def abandon(self) -> None:
        """Release what a set-up-only launch started, as fast as possible."""
        self.close()


# -- paper-figures -----------------------------------------------------------

#: The paper's Section 4 orderings, per figure: ``(lower, higher)`` labels.
_ORDERINGS = {
    "fig6": [("static[2.5-hop]", "mo-cds"), ("static[3-hop]", "mo-cds")],
    "fig7": [("dynamic[2.5-hop]", "mo-cds"), ("dynamic[3-hop]", "mo-cds")],
    "fig8": [("dynamic[2.5-hop]", "static[2.5-hop]"),
             ("dynamic[3-hop]", "static[3-hop]")],
}


def _table_points(tables) -> dict:
    """``{d: {label: [(x, mean, half, samples, confidence)]}}``."""
    out = {}
    for d, table in tables.items():
        out[d] = {
            s.label: [(p.x, p.estimate.mean, p.estimate.half_width,
                       p.estimate.samples, p.estimate.confidence)
                      for p in s.points]
            for s in table.series
        }
    return out


class PaperFigures(Workload):
    """Figures 6, 7 and 8 at the paper's environment, as ``--ci`` runs them.

    One op is all three figures (n = 20..100, d in {6, 18}, 99 % CI
    within +-5 %, serial backend) from a cold scenario cache.  Every
    round of a run repeats the same figures, so rounds must agree
    exactly.
    """

    name = "paper-figures"
    unit = "folded trial"

    def setup(self) -> None:
        from repro.exec import scenarios
        from repro.workload import config, experiments

        self.experiments = experiments
        self.scenarios = scenarios
        self.env = config.PaperEnvironment.paper().scaled(
            seed=int(_rng(self.seed, 6).integers(2 ** 31)))
        warm = config.PaperEnvironment.quick().scaled(ns=(20,), degrees=(6.0,))
        experiments.run_fig6(warm)
        self.first: Optional[dict] = None
        self.mismatch = False

    def begin_round(self, r: int) -> None:
        self.scenarios.get_scenario_cache().clear()

    def op(self, r: int, i: int):
        ex = self.experiments
        tables = {
            "fig6": ex.run_fig6(self.env),
            "fig7": ex.run_fig7(self.env),
            "fig8": ex.run_fig8(self.env),
        }
        folded = sum(
            p.estimate.samples
            for figure in tables.values() for table in figure.values()
            for p in table.series[0].points
        )
        return folded, tables

    def collect(self, r: int, i: int, output) -> None:
        points = {f: _table_points(t) for f, t in output.items()}
        if self.first is None:
            self.first = points
        elif points != self.first:
            self.mismatch = True

    def check(self) -> List[str]:
        problems = ["rounds of one seed disagree"] if self.mismatch else []
        env = self.env
        for figure, points in (self.first or {}).items():
            problems += [f"{figure}: {p}" for p in checks.figure_problems(
                points, _ORDERINGS[figure], confidence=env.confidence,
                target=env.target, min_samples=env.min_samples)]
        problems += self._check_scenarios()
        return problems

    def _check_scenarios(self) -> List[str]:
        """Structure checks on a seeded subset of the cached scenarios."""
        from repro.backbone.mo_cds import build_mo_cds
        from repro.backbone.static_backbone import build_static_backbone
        from repro.broadcast.sd_cds import broadcast_sd
        from repro.types import CoveragePolicy, PruningLevel

        rng = _rng(self.seed, 7)
        problems = []
        env = self.env
        for _ in range(12):
            d = float(rng.choice(env.degrees))
            n = int(rng.choice(env.ns))
            index = int(rng.integers(env.min_samples))
            scenario = self.scenarios.connected_scenario(
                n, d, area=env.area, root=env.seed, index=index)
            net = scenario.network
            ids = np.array(sorted(net.graph.nodes()), dtype=np.int64)
            edges = np.array(net.graph.edges(), dtype=np.int64)
            pts = np.array([net.positions[v] for v in ids.tolist()])
            where = f"d={d:g} n={n} #{index}"
            problems += [f"{where}: {p}" for p in checks.edge_problems(
                ids, edges, ids[checks.unit_disk_pairs(pts, net.radius)])]
            structure = scenario.clustering
            head_of = np.array([structure.head_of[v] for v in ids.tolist()])
            problems += [f"{where}: {p}" for p in
                         checks.lowest_id_problems(ids, edges, head_of)]
            for policy in (CoveragePolicy.TWO_FIVE_HOP,
                           CoveragePolicy.THREE_HOP):
                backbone = build_static_backbone(structure, policy)
                problems += [f"{where} {backbone.algorithm}: {p}" for p in
                             checks.cds_problems(ids, edges,
                                                 sorted(backbone.nodes))]
            mo = build_mo_cds(structure)
            problems += [f"{where} mo-cds: {p}" for p in
                         checks.cds_problems(ids, edges, sorted(mo.nodes))]
            source = int(rng.choice(ids))
            for policy in (CoveragePolicy.TWO_FIVE_HOP,
                           CoveragePolicy.THREE_HOP):
                result = broadcast_sd(structure, source, policy=policy,
                                      pruning=PruningLevel.FULL).result
                if set(result.received) != set(ids.tolist()):
                    problems.append(f"{where} SD: delivery incomplete")
                problems += [f"{where} SD: {p}" for p in
                             checks.forwarding_problems(
                                 ids, edges, source,
                                 sorted(result.forward_nodes))]
        return problems

    def trace_points(self) -> list:
        ex = "repro.workload.experiments"
        conf = "repro.metrics.confidence"
        gen = "repro.graph.generators"
        estimator = [(conf, f"SequentialEstimator.{m}", "metrics.estimator_ms",
                      None)
                     for m in ("add", "converged", "interval",
                               "projected_samples")]
        return estimator + [
            (ex, "paired_trials", "workload.harness_ms",
             _count("workload.trials_folded", lambda a, r: r.trials)),
            ("repro.exec.backends", "SerialBackend.run_wave",
             "exec.backend_ms",
             _count("workload.trials_run", lambda a, r: len(r))),
            (ex, "connected_scenario", "scenarios.draw_ms",
             _count("scenarios.lookups")),
            ("repro.exec.scenarios", "ScenarioCache._draw",
             "scenarios.draw_ms", _count("scenarios.draws")),
            (gen, "uniform_placement", "geometry.placement_ms",
             _count("geometry.placements")),
            (gen, "unit_disk_graph", "graph.unit_disk_ms",
             _count("graph.edges", lambda a, r: r.num_edges)),
            (gen, "is_connected", "graph.giant_ms", None),
            ("repro.exec.scenarios", "lowest_id_clustering",
             "cluster.busy_ms", _count("cluster.calls")),
            (ex, "build_static_backbone", "backbone.static_ms",
             _count("backbone.size", lambda a, r: r.size)),
            (ex, "build_mo_cds", "backbone.mo_cds_ms",
             _count("backbone.size", lambda a, r: r.size)),
            (ex, "broadcast_sd", "broadcast.sd_ms",
             _count("broadcast.forward_nodes",
                    lambda a, r: r.result.num_forward_nodes)),
            (ex, "broadcast_si", "broadcast.si_ms",
             _count("broadcast.forward_nodes",
                    lambda a, r: r.num_forward_nodes)),
            (conf, "t_quantile", "metrics.estimator_ms",
             _count("metrics.t_quantile_calls")),
        ]

    def layer_metrics(self, tracer, ops: int) -> Dict[str, float]:
        c = tracer.counts
        out = {}
        if c["scenarios.lookups"]:
            out["scenarios.hit_ratio"] = (
                1.0 - c["scenarios.draws"] / c["scenarios.lookups"])
        if c["geometry.placements"]:
            out["graph.connected_ratio"] = (
                c["scenarios.draws"] / c["geometry.placements"])
        if c["workload.trials_run"]:
            out["workload.useful_ratio"] = (
                c["workload.trials_folded"] / c["workload.trials_run"])
        return out


# -- large-network -----------------------------------------------------------

class LargeNetwork(Workload):
    """The array pipeline on fresh seeded placements of 10^5 nodes, d = 12.

    One op: placement, ``unit_disk_csr``, giant component,
    ``lowest_id_rows``, ``two_five_hop_arrays``,
    ``select_gateways_batch`` and ``sd_rows`` from a seeded source.  The
    area grows with n so the density matches the paper's.
    """

    name = "large-network"
    unit = "node"
    N = 100_000
    DEGREE = 12.0
    WARM_N = 20_000

    def setup(self) -> None:
        from repro.backbone import gateway_selection
        from repro.broadcast import kernels
        from repro.cluster import lowest_id
        from repro.coverage import two_five_hop
        from repro.geometry import disk, placement
        from repro.geometry.area import Area
        from repro.graph import build

        self.m = dict(placement=placement, build=build, lowest_id=lowest_id,
                      two_five_hop=two_five_hop, kernels=kernels,
                      gateway_selection=gateway_selection)
        side = 100.0 * (self.N / 100.0) ** 0.5
        self.area = Area(side, side)
        self.radius = disk.range_for_target_degree(self.N, self.DEGREE,
                                                   self.area)
        self.kept: List[dict] = []
        # The seeded ops whose output the checks re-derive.
        self.checked = {0, int(_rng(self.seed, 8).integers(1, 6))}
        warm_side = 100.0 * (self.WARM_N / 100.0) ** 0.5
        self._pipeline(_rng(self.seed, 9), self.WARM_N,
                       Area(warm_side, warm_side), self.radius)

    def _pipeline(self, rng, n, area, radius):
        m = self.m
        pts = m["placement"].uniform_placement(n, area, rng)
        full = m["build"].unit_disk_csr(pts, radius)
        comp = full.subgraph_rows(full.giant_component_rows())
        head_row = m["lowest_id"].lowest_id_rows(comp)
        cov = m["two_five_hop"].two_five_hop_arrays(comp, head_row)
        selection = m["gateway_selection"].select_gateways_batch(cov)
        backbone = selection.backbone_rows()
        source = int(rng.integers(comp.num_nodes))
        run = m["kernels"].sd_rows(comp, head_row, cov,
                                   np.array([source], dtype=np.int64),
                                   collect=False)
        return pts, full, comp, head_row, backbone, source, run

    def op(self, r: int, i: int):
        out = self._pipeline(_rng(self.seed, 10, r), self.N, self.area,
                             self.radius)
        return self.N, out

    def collect(self, r: int, i: int, output) -> None:
        if r not in self.checked:
            return
        pts, full, comp, head_row, backbone, source, run = output
        ids = comp.ids
        self.kept.append(dict(
            pts=pts, edges=_csr_edges(full), comp_ids=ids.copy(),
            head_of=ids[head_row], backbone=ids[backbone],
            source=int(ids[source]),
            forwarders=ids[np.flatnonzero(run.forwarded)],
            unreached=int((run.time < 0).sum()),
        ))

    def check(self) -> List[str]:
        problems = []
        for k in self.kept:
            n = k["pts"].shape[0]
            pairs = checks.unit_disk_pairs(k["pts"], self.radius)
            problems += checks.edge_problems(np.arange(n), k["edges"], pairs)
            giant = checks.giant_component(n, pairs)
            if not np.array_equal(giant, k["comp_ids"]):
                problems.append("giant component differs from scipy's")
                continue
            inside = np.isin(pairs[:, 0], giant)
            edges = pairs[inside]
            problems += checks.lowest_id_problems(giant, edges, k["head_of"])
            problems += checks.cds_problems(giant, edges, k["backbone"])
            problems += checks.forwarding_problems(
                giant, edges, k["source"], k["forwarders"])
            if k["unreached"]:
                problems.append(f"SD left {k['unreached']} nodes unreached")
        return problems

    def trace_points(self) -> list:
        def csr_counts(tracer, args, kwargs, graph):
            tracer.count("graph.edges", graph.num_edges)
            tracer.count("graph.csr_mb", _mib(graph.indptr, graph.indices))

        csr = "repro.graph.csr"
        return [
            ("repro.geometry.placement", "uniform_placement",
             "geometry.placement_ms", _count("geometry.placements")),
            ("repro.graph.build", "unit_disk_csr", "graph.unit_disk_ms",
             csr_counts),
            (csr, "CSRGraph.giant_component_rows", "graph.giant_ms", None),
            (csr, "CSRGraph.subgraph_rows", "graph.giant_ms", None),
            ("repro.cluster.lowest_id", "lowest_id_rows", "cluster.busy_ms",
             _count("cluster.calls")),
            ("repro.coverage.two_five_hop", "two_five_hop_arrays",
             "coverage.busy_ms",
             _count("coverage.table_mb", lambda a, r: _mib(
                 r.d_head, r.d_ch, r.d_v, r.i_head, r.i_ch, r.i_v, r.i_w))),
            ("repro.backbone.gateway_selection", "select_gateways_batch",
             "backbone.selection_ms", None),
            ("repro.backbone.gateway_selection",
             "BatchGatewaySelection.backbone_rows", "backbone.selection_ms",
             _count("backbone.size", lambda a, r: r.shape[0])),
            ("repro.broadcast.kernels", "sd_rows", "broadcast.sd_ms",
             _count("broadcast.forward_nodes",
                    lambda a, r: int(r.forwarded.sum()))),
        ]


# -- mobility ----------------------------------------------------------------

class Mobility(Workload):
    """``MobilitySession`` ticks on 5000 nodes at d = 12, above CSR_CUTOVER.

    Random waypoint at 0.5-1.5x 5 % of the radio range per tick.  Each
    round builds a fresh seeded session and runs one untimed warm-up
    tick, then ``ops_per_round`` timed ticks.
    """

    name = "mobility"
    unit = "tick"
    N = 5000
    DEGREE = 12.0
    SPEED = 0.05
    ops_per_round = 20
    #: Ticks per round whose output is checked (seeded).
    CHECKED = 2

    def setup(self) -> None:
        from repro.geometry import disk, mobility, placement
        from repro.geometry.area import Area
        from repro.graph.build import unit_disk_graph
        from repro.graph.network import Network
        from repro.maintenance import session

        self.session_mod = session
        self.mobility = mobility
        self.placement = placement
        self.unit_disk_graph = unit_disk_graph
        self.Network = Network
        side = 100.0 * (self.N / 100.0) ** 0.5
        self.area = Area(side, side)
        self.radius = disk.range_for_target_degree(self.N, self.DEGREE,
                                                   self.area)
        self.kept: List[dict] = []
        self.session = None
        self.begin_round(-1)
        self.end_round(-1)

    def begin_round(self, r: int) -> None:
        rng = _rng(self.seed, 11, r)
        pts = self.placement.uniform_placement(self.N, self.area, rng)
        net = self.Network(
            graph=self.unit_disk_graph(pts, self.radius),
            positions={v: (float(x), float(y))
                       for v, (x, y) in enumerate(pts)},
            radius=self.radius, area=self.area)
        speed = self.SPEED * self.radius
        model = self.mobility.RandomWaypoint(
            speed_range=(0.5 * speed, 1.5 * speed), area=self.area, rng=rng)
        self.session = self.session_mod.MobilitySession(net, model)
        self.session.step()
        self.sampled = set(_rng(self.seed, 12, r).choice(
            self.ops_per_round, self.CHECKED, replace=False).tolist())
        self.before = self.session.network.position_array()

    def end_round(self, r: int) -> None:
        self.session = None

    def op(self, r: int, i: int):
        return 1, self.session.step()

    def collect(self, r: int, i: int, report) -> None:
        net = report.network
        before, after = self.before, None
        if i + 1 in self.sampled or i in self.sampled:
            after = self.before = net.position_array()
        if i not in self.sampled:
            return
        ids = np.array(sorted(net.graph.nodes()), dtype=np.int64)
        self.kept.append(dict(
            before=before, after=after, ids=ids,
            edges=np.array(net.graph.edges(), dtype=np.int64),
            head_of=np.array([report.structure.head_of[v]
                              for v in ids.tolist()]),
            backbone=np.array(sorted(report.backbone.nodes)),
            link_changes=report.link_changes,
        ))

    def check(self) -> List[str]:
        problems = []
        for k in self.kept:
            ids, edges = k["ids"], k["edges"]
            pairs = checks.unit_disk_pairs(k["after"], self.radius)
            problems += checks.edge_problems(ids, edges, ids[pairs])
            problems += checks.lowest_id_problems(ids, edges, k["head_of"])
            problems += checks.cds_problems(ids, edges, k["backbone"])
            problems += checks.link_change_problems(
                k["before"], k["after"], self.radius, k["link_changes"])
        return problems

    def trace_points(self) -> list:
        def kernel_report(tracer, args, kwargs, rep):
            tracer.count("maintenance.step_ms", rep.step_seconds * 1e3)
            tracer.count("maintenance.delta_ms", rep.delta_seconds * 1e3)
            tracer.count("maintenance.repair_ms", rep.repair_seconds * 1e3)
            tracer.count("maintenance.link_changes", rep.link_changes)
            tracer.count("maintenance.reevaluated", rep.reevaluated)
            tracer.count("maintenance.dirty_heads", rep.dirty_heads)
            tracer.count("maintenance.resignalled", rep.resignalling)

        return [
            ("repro.maintenance.session", "MobilitySession.step",
             "maintenance.materialise_ms", None),
            ("repro.maintenance.kernels", "KernelMobilitySession.step",
             "maintenance.kernel_ms", kernel_report),
        ]


# -- served ------------------------------------------------------------------

#: One round of requests: ``(experiment, params)`` without the seed, which
#: is fresh per request.  The mix is fixed so that the latency quantiles
#: fall inside a request class; most requests are single-point figure
#: requests, and the n = 300 points run the batched kernel waves (at
#: d >= 12: at d = 6, rejection sampling of connected n = 300 samples
#: makes the request time vary twofold with the seed).
_SERVED_ROUND = [
    ("fig6", {"ns": [40], "degrees": [6.0]}),
    ("fig7", {"ns": [60], "degrees": [18.0]}),
    ("flooding", {"ns": [40], "degrees": [6.0]}),
    ("fig6", {"ns": [80], "degrees": [18.0]}),
    ("fig7", {"ns": [40], "degrees": [6.0]}),
    ("fig8", {"ns": [20], "degrees": [18.0]}),
    ("flooding", {"ns": [60], "degrees": [18.0]}),
    ("fig6", {"ns": [60], "degrees": [6.0]}),
    ("fig7", {"ns": [20], "degrees": [18.0]}),
    ("fig8", {"ns": [40], "degrees": [6.0]}),
    ("flooding", {"ns": [20], "degrees": [6.0]}),
    ("channel", {"n": 40}),
    ("faults", {"n": 30}),
    ("fig7", {"ns": [300], "degrees": [12.0]}),
    ("fig8", {"ns": [300], "degrees": [18.0]}),
]
_TRIALS = 10


class ServeDaemon:
    """A ``repro serve`` process with its pool, driven over one socket."""

    def __init__(self, root: Path, workers: int) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.root = root
        self.socket_path = root / "s.sock"
        env = dict(os.environ, PYTHONPATH=str(SRC.resolve()))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", str(self.socket_path), "--root", str(root / "state"),
             "--parallel", str(workers)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True)
        line = self.proc.stdout.readline()
        if not line.startswith("serving on"):
            self.kill()
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.conn.connect(str(self.socket_path))
        self.reader = self.conn.makefile("rb")

    def call(self, payload: dict, tracer=None):
        """Send one request; return its frames up to the terminal one."""
        self.conn.sendall(json.dumps(payload).encode() + b"\n")
        frames = []
        span = tracer.begin("serve.admission_ms") if tracer else None
        while True:
            frame = json.loads(self.reader.readline())
            frames.append(frame)
            kind = frame.get("type")
            if kind == "accepted" and tracer:
                tracer.end(span)
                span = tracer.begin("serve.run_ms")
            if kind != "accepted" and kind != "update":
                break
        if tracer:
            tracer.end(span)
        return frames

    def submit(self, experiment: str, params: dict, tracer=None) -> dict:
        frames = self.call({"op": "submit", "experiment": experiment,
                            "params": params, "stream": True}, tracer)
        if tracer:
            tracer.count("serve.update_frames",
                         sum(f.get("type") == "update" for f in frames))
        return frames[-1]

    def pids(self) -> List[int]:
        """The daemon and its pool workers."""
        pids = [self.proc.pid]
        for pid in list(pids):
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    children = Path(f"/proc/{pid}/task/{task}/children")
                    pids += [int(p) for p in children.read_text().split()]
            except OSError:
                pass
        return pids

    def close_connection(self) -> None:
        self.reader.close()
        self.conn.close()

    def terminate(self) -> float:
        """Graceful SIGTERM; seconds until the daemon has exited."""
        self.close_connection()
        t0 = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        seconds = time.perf_counter() - t0
        self._reap_group()
        shutil.rmtree(self.root, ignore_errors=True)
        return seconds

    def kill(self) -> None:
        """SIGKILL the daemon's process group and wait for all of it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reap_group()
        shutil.rmtree(self.root, ignore_errors=True)

    def _reap_group(self) -> None:
        """Wait until no process of the daemon's group is left running."""
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            alive = False
            for entry in os.listdir("/proc"):
                if not entry.isdigit():
                    continue
                try:
                    fields = Path(f"/proc/{entry}/stat").read_text()
                except OSError:
                    continue
                state, _, pgid = fields.rsplit(")", 1)[1].split()[:3]
                if int(pgid) == self.proc.pid and state != "Z":
                    alive = True
                    try:
                        os.kill(int(entry), signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            if not alive:
                return
            time.sleep(0.05)


class Served(Workload):
    """A closed-loop client on one connection to ``repro serve``.

    The daemon runs its process pool with ``WORKERS`` workers.  Each
    request streams, and the next is sent only after the terminal frame.
    A round is :data:`_SERVED_ROUND`, every request with a fresh seed.
    """

    name = "served"
    unit = "request"
    ops_per_round = len(_SERVED_ROUND)
    #: One pool worker: with two on a 2-vCPU host the daemon, the client
    #: and the workers contend, and the median latency spread 0.33
    #: between runs instead of 0.08.
    WORKERS = 1

    def setup(self) -> None:
        import repro.serve  # noqa: F401  (serve_adapters needs it first)
        from repro.workload import serve_adapters

        self.adapters = serve_adapters
        root = Path(".perfbench") / f"serve-{os.getpid()}"
        self.daemon = ServeDaemon(root, self.WORKERS)
        # Warm-up: one request of every class, so each pool worker has
        # imported and resolved what the timed requests use.
        for i, item in enumerate(_SERVED_ROUND):
            self._submit(item, int(_rng(self.seed, 15, i).integers(2 ** 62)),
                         trials=2)
        self.kept: List[tuple] = []
        self.families = set()
        self.pick = _rng(self.seed, 13)
        self.shutdown_s = 0.0

    def _submit(self, item, seed: int, tracer=None, trials=_TRIALS):
        experiment, params = item
        params = dict(params, trials=trials, seed=seed)
        frame = self.daemon.submit(experiment, params, tracer)
        if frame.get("type") != "result":
            raise RuntimeError(f"{experiment} failed: {frame}")
        return experiment, params, frame["result"]

    def _state_bytes(self) -> int:
        total = 0
        for path, _, files in os.walk(self.daemon.root / "state"):
            for f in files:
                try:
                    total += os.path.getsize(os.path.join(path, f))
                except OSError:
                    pass
        return total

    def op(self, r: int, i: int):
        seed = int(_rng(self.seed, 14, r, i).integers(2 ** 62))
        return 1, self._submit(_SERVED_ROUND[i], seed, self.tracer)

    def begin_round(self, r: int) -> None:
        if self.tracer is not None:
            t0 = time.perf_counter()
            self.daemon.call({"op": "health"})
            self.tracer.count("serve.roundtrip_ms",
                              (time.perf_counter() - t0) * 1e3)
            self.tracer.count("serve.health_ops")
            self.bytes_before = self._state_bytes()

    def end_round(self, r: int) -> None:
        if self.tracer is not None:
            self.tracer.count("exec.journal_bytes",
                              self._state_bytes() - self.bytes_before)

    def collect(self, r: int, i: int, output) -> None:
        experiment = output[0]
        if experiment not in self.families or self.pick.random() < 0.15:
            self.families.add(experiment)
            self.kept.append(output)

    def check(self) -> List[str]:
        from repro.workload.serve_adapters import RunContext

        problems = []
        for experiment, params, served in self.kept:
            adapter = self.adapters.get_adapter(experiment)
            oracle = adapter.run(adapter.validate(params),
                                 RunContext(backend="serial"))
            oracle = json.loads(json.dumps(oracle))
            problems += [f"{experiment} seed={params['seed']}: {p}"
                         for p in checks.result_problems(served, oracle)]
        missing = {e for e, _ in _SERVED_ROUND} - self.families
        if missing:
            problems.append(f"no result checked for {sorted(missing)}")
        return problems

    def peak_rss_mb(self) -> float:
        total = 0
        for pid in self.daemon.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                for line in status.split("\n"):
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
            except OSError:
                pass
        return total / 1024.0

    def layer_metrics(self, tracer, ops: int) -> Dict[str, float]:
        c = tracer.counts
        rounds = max(1.0, c["serve.health_ops"])
        return {
            "serve.roundtrip_ms": c["serve.roundtrip_ms"] / rounds,
            "exec.journal_bytes": c["exec.journal_bytes"] / max(1, ops),
            "serve.shutdown_s": self.shutdown_s,
        }

    def close(self) -> None:
        if getattr(self, "daemon", None) is not None:
            self.shutdown_s = self.daemon.terminate()

    def abandon(self) -> None:
        """Stop a set-up-only daemon at once (it holds no work)."""
        self.daemon.kill()


WORKLOADS = {w.name: w for w in (PaperFigures, LargeNetwork, Mobility, Served)}
