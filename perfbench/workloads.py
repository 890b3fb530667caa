"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``setup`` (repeated by
``run.py`` to time set-up), runs one round of the operation a user
waits on in ``run`` (the timed region), then, outside the timed region,
``finish`` checks that round's outputs, measures the store it left and
puts the work directory back to its post-set-up state, so every round
repeats the same operations. ``final_checks`` compares a seeded sample
of sessions with the scalar reference once all rounds are done.

The program is reached through its modules' attributes at call time
(``dataset.build_video``, not a name imported here) so the probes of a
traced run see these calls too.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments import parallel, runner
from repro.experiments.store import SessionStore
from repro.fleet import arrivals, bench, runner as fleet_runner
from repro.network import traces as trace_mod
from repro.video import dataset


@dataclass
class Outcome:
    """What one round did, as seen by a user of the program."""

    attempted: int  # sessions requested (fleet: arrivals)
    passed: int  # sessions returned that pass every per-session check
    sim_s: float  # simulated seconds covered by the returned sessions
    disk_bytes: int  # space allocated to what the round persisted
    problems: List[str] = field(default_factory=list)


def disk_bytes(path: Path) -> int:
    """Space allocated on disk (in blocks) to a file or a whole tree."""
    total = os.lstat(path).st_blocks * 512
    for root, dirs, files in os.walk(path):
        for name in dirs + files:
            total += os.lstat(os.path.join(root, name)).st_blocks * 512
    return total


def bits_of(metrics) -> Tuple:
    """A session's metric vector with floats as exact hex strings."""
    return tuple(
        value.hex() if isinstance(value, float) else value for value in astuple(metrics)
    )


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


class _Sweep:
    """Shared input building and checks of the two sweep workloads."""

    schemes: Sequence[str] = ()
    video_names: Sequence[str] = ()
    n_traces = 0
    sample_per_scheme = 2

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.first: Dict[Tuple[str, str], List[Tuple]] = {}
        self.results = None

    def build_inputs(self, seed: int) -> None:
        self.seed = seed
        by_name = {spec.name: spec for spec in dataset.standard_dataset_specs()}
        self.videos = [dataset.build_video(by_name[name], seed=seed) for name in self.video_names]
        self.traces = trace_mod.synthesize_lte_traces(self.n_traces, seed=seed)

    def check_grid(self, results) -> Outcome:
        """Per-session properties, trace order and repeatability."""
        attempted = len(self.schemes) * len(self.videos) * len(self.traces)
        passed = 0
        sim_s = 0.0
        problems: List[str] = []
        names = [trace.name for trace in self.traces]
        for video in self.videos:
            sizes = np.stack([track.chunk_sizes_bits for track in video.tracks])
            # Any session downloads every chunk once, at some level.
            lo_mb = float(sizes.min(axis=0).sum()) / 8e6
            hi_mb = float(sizes.max(axis=0).sum()) / 8e6
            top = video.num_tracks - 1
            for scheme in self.schemes:
                cell = (scheme, video.name)
                result = results.get(cell)
                if result is None:
                    problems.append(f"{cell}: no result")
                    continue
                if result.failures:
                    problems.append(f"{cell}: {len(result.failures)} failed unit(s)")
                if [m.trace_name for m in result.metrics] != names:
                    problems.append(f"{cell}: not one result per trace in trace order")
                    continue
                for m in result.metrics:
                    ok = (
                        m.scheme == scheme
                        and m.video_name == video.name
                        and 0.0 <= m.low_quality_fraction <= 1.0
                        and m.rebuffer_s >= 0.0
                        and 0.0 <= m.mean_level <= top
                        and lo_mb * (1 - 1e-9) <= m.data_usage_mb <= hi_mb * (1 + 1e-9)
                    )
                    if ok:
                        passed += 1
                        sim_s += video.duration_s
                    elif len(problems) < 20:
                        problems.append(f"{cell} {m.trace_name}: metric out of range")
                fingerprint = [bits_of(m) for m in result.metrics]
                if self.first.setdefault(cell, fingerprint) != fingerprint:
                    problems.append(f"{cell}: differs from the first round")
        self.results = results
        return Outcome(attempted, passed, sim_s, 0, problems)

    def final_checks(self) -> List[str]:
        """A seeded sample of cells equals the scalar session bit for bit."""
        rng = random.Random(self.seed)
        problems = []
        by_name = {video.name: video for video in self.videos}
        for scheme in self.schemes:
            for _ in range(self.sample_per_scheme):
                video_name = rng.choice(self.video_names)
                index = rng.randrange(len(self.traces))
                expected = runner.run_one_session(scheme, by_name[video_name], self.traces[index])
                got = self.results[(scheme, video_name)].metrics[index]
                if bits_of(got) != bits_of(expected):
                    problems.append(
                        f"({scheme}, {video_name}, trace {index}): differs from run_one_session"
                    )
        return problems


class SweepCold(_Sweep):
    """The §6 comparison grid, first run, pool executor at 2 workers."""

    name = "sweep_cold"
    schemes = ("CAVA", "RBA", "MPC", "RobustMPC", "BBA-1", "BOLA-E (peak)")
    video_names = ("ED-ffmpeg-h264", "BBB-youtube-h264")
    n_traces = 200
    workers = 2

    def setup(self, seed: int) -> None:
        self.build_inputs(seed)

    def run(self):
        self.store_dir = self.workdir / "cold-store"
        engine = parallel.ParallelSweepRunner(
            n_workers=self.workers, store=SessionStore(self.store_dir), on_error="skip"
        )
        return engine.run_grid(self.schemes, self.videos, self.traces)

    def finish(self, results) -> Outcome:
        outcome = self.check_grid(results)
        outcome.disk_bytes = disk_bytes(self.store_dir)
        shutil.rmtree(self.store_dir)
        return outcome


class SweepResume(_Sweep):
    """Incremental resume: ¾ of the grid stored, multihost executor."""

    name = "sweep_resume"
    schemes = ("CAVA", "CAVA-p12", "RBA")
    video_names = tuple(spec.name for spec in dataset.standard_dataset_specs()[:6])
    n_traces = 400
    n_stored = 300
    sample_per_scheme = 3

    def setup(self, seed: int) -> None:
        self.build_inputs(seed)
        self.store_dir = self.workdir / "resume-store"
        if self.store_dir.exists():
            shutil.rmtree(self.store_dir)
        engine = parallel.ParallelSweepRunner(n_workers=1, store=SessionStore(self.store_dir))
        stored = engine.run_grid(self.schemes, self.videos, self.traces[: self.n_stored])
        self.stored = {
            cell: [bits_of(m) for m in result.metrics] for cell, result in stored.items()
        }
        self.baseline = set(_tree_files(self.store_dir))

    def run(self):
        engine = parallel.ParallelSweepRunner(
            n_workers=1, store=SessionStore(self.store_dir), executor="multihost"
        )
        return engine.run_grid(self.schemes, self.videos, self.traces)

    def finish(self, results) -> Outcome:
        outcome = self.check_grid(results)
        for cell, expected in self.stored.items():
            got = [bits_of(m) for m in results[cell].metrics[: self.n_stored]]
            if got != expected:
                outcome.problems.append(f"{cell}: stored sessions read back differently")
        outcome.disk_bytes = disk_bytes(self.store_dir)
        # Back to the post-set-up store: drop this round's entries and leases.
        for path in set(_tree_files(self.store_dir)) - self.baseline:
            os.unlink(path)
        shutil.rmtree(self.store_dir / "leases", ignore_errors=True)
        return outcome


def _tree_files(root: Path) -> List[str]:
    return [
        os.path.join(dirpath, name) for dirpath, _dirs, files in os.walk(root) for name in files
    ]


# ----------------------------------------------------------------------
# Fleet
# ----------------------------------------------------------------------


class FleetFlashCrowd:
    """The fleet benchmark's diurnal + flash-crowd shape on 2 edges.

    2 arrivals/s per edge, as in the 4-edge, 8 arrivals/s shape, in half
    the wall time per round, so a run takes more rounds.
    """

    name = "fleet_flash_crowd"
    duration_s = 1800.0
    n_edges = 2
    arrivals_per_s = 4.0

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.first = None

    def setup(self, seed: int) -> None:
        spec = bench.bench_spec(
            duration_s=self.duration_s,
            n_edges=self.n_edges,
            arrivals_per_s=self.arrivals_per_s,
            seed=seed,
        )
        self.spec = spec
        self.expected = [len(arrivals.edge_arrival_times(spec, e)) for e in range(spec.n_edges)]
        self.edge_traces = [
            fleet_runner.synthesize_edge_trace(spec, e) for e in range(spec.n_edges)
        ]

    def run(self):
        return fleet_runner.run_fleet(self.spec, n_workers=1)

    def finish(self, result) -> Outcome:
        problems: List[str] = []
        fingerprint = []
        for edge, expected, trace in zip(result.edges, self.expected, self.edge_traces):
            tag = f"edge {edge.edge_index}"
            if edge.sessions != expected:
                problems.append(f"{tag}: {edge.sessions} sessions for {expected} arrivals")
            if edge.arrivals.sum() != edge.sessions or edge.finishes.sum() != edge.sessions:
                problems.append(f"{tag}: arrival/finish buckets do not sum to the sessions")
            delivered = float(edge.delivered_bits.sum())
            if not math.isclose(delivered, edge.bits, rel_tol=1e-4):
                problems.append(f"{tag}: delivered {delivered} bits, sessions took {edge.bits}")
            capacity = bucket_capacity(trace, edge.bucket_s, edge.n_buckets)
            over = edge.delivered_bits > capacity * (1 + 1e-9)
            if over.any():
                problems.append(f"{tag}: buckets {np.flatnonzero(over).tolist()} over capacity")
            fingerprint.append(
                (edge.sessions, edge.chunks, edge.bits.hex(), edge.events,
                 edge.delivered_bits.tobytes(), edge.qoe_total.hex())
            )
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            problems.append("fleet result differs from the first round")
        report = self.workdir / "fleet-report.json"
        report.write_text(json.dumps(result.report()))
        size = disk_bytes(report)
        report.unlink()
        attempted = sum(self.expected)
        passed = result.sessions if not problems else 0
        return Outcome(attempted, passed, self.duration_s, size, problems)

    def final_checks(self) -> List[str]:
        return []


def bucket_capacity(trace, width: float, n_buckets: int) -> np.ndarray:
    """Bits the edge trace can carry in each ``width``-second bucket.

    The trace repeats with its own period (as a trace-driven link does),
    so the cumulative capacity at ``t`` is whole periods plus the
    piecewise-linear integral of the rates inside the last one.
    """
    rates = np.asarray(trace.throughputs_bps, dtype=float)
    step = trace.interval_s
    period = step * rates.size
    cum = np.concatenate(([0.0], np.cumsum(rates * step)))

    def cumulative(t: np.ndarray) -> np.ndarray:
        whole, rem = np.divmod(t, period)
        index = np.minimum((rem // step).astype(int), rates.size - 1)
        return whole * cum[-1] + cum[index] + rates[index] * (rem - index * step)

    edges = np.arange(n_buckets + 1) * width
    return np.diff(cumulative(edges))


WORKLOADS = {cls.name: cls for cls in (SweepCold, SweepResume, FleetFlashCrowd)}
