"""Function-level probes for the traced benchmark run.

A probe swaps one public function or method of the program for a wrapper
that counts calls and adds up wall and CPU time, and puts the original
back when the run is done. The program itself is not edited.

Probes are installed in the benchmark process before any worker pool
forks, so forked workers inherit them. At fork the child zeroes its
copy of the totals; after every work unit it writes its running totals
to one file per process in the benchmark's work directory, and the
parent folds those files in once the workers have exited.

Self time: every probe frame records how much of its wall time was
spent inside other probed calls (its probed children), so a layer's
self time is its wall time minus that.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# Per-probe totals: [calls, wall_s, cpu_s, child_wall_s, items, hits].
# ``items`` and ``hits`` are whatever the probe's observer counts
# (sessions returned, bytes published, store hits, ...).
CALLS, WALL, CPU, CHILD, ITEMS, HITS = range(6)

# An observer sees one successful call: (totals, positional args,
# result, wall_s, cpu_s).
Observer = Callable[[list, tuple, object, float, float], None]


def _count_len(stat, args, result, wall, spent):
    stat[ITEMS] += len(result) if result is not None else 0


def _count_truthy(stat, args, result, wall, spent):
    stat[HITS] += 1 if result else 0


def _count_found(stat, args, result, wall, spent):
    stat[HITS] += 0 if result is None else 1


def _count_nbytes(stat, args, result, wall, spent):
    stat[ITEMS] += result.nbytes if result is not None else 0


def _count_events(stat, args, result, wall, spent):
    stat[ITEMS] += result.events


class Probes:
    """Install, collect and remove the benchmark's function probes.

    One instance per benchmark process. ``workdir`` receives the
    per-worker total files; ``shapes`` collects, in the parent, the
    lanes of every planned work unit keyed by scheme label.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = Path(workdir)
        self.parent_pid = os.getpid()
        self.stats: Dict[str, list] = {}
        # (pid, wall_s, cpu_s) of every work unit this process ran.
        self.units: List[Tuple[int, float, float]] = []
        self.shapes: Dict[str, List[int]] = {}
        self._stack: List[list] = []
        self._active: Dict[str, list] = {}
        self._installed: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- wrapping -------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0, 0])

    def wrap(self, name: str, fn, observe: Optional[Observer] = None):
        """A timing wrapper around ``fn`` that feeds probe ``name``.

        Several wrappers may share one name (the ABR ``select_level`` of
        every scheme class); a call made while the same name is already
        active (``super()`` chains, nested schemes) is not counted again.
        """
        stat = self._stat(name)
        active = self._active.setdefault(name, [0])
        stack = self._stack
        perf = time.perf_counter
        cpu = time.process_time

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = 1
            frame = [0.0]
            stack.append(frame)
            w0 = perf()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = perf() - w0
                spent = cpu() - c0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                active[0] = 0
                stat[CALLS] += 1
                stat[WALL] += wall
                stat[CPU] += spent
                stat[CHILD] += frame[0]
            if observe is not None:
                observe(stat, args, result, wall, spent)
            return result

        return probe

    def _replace(self, owner, attr: str, new) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_function(self, module, attr: str, name: str, observe=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's import of it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, observe=None) -> None:
        """Wrap the method ``attr`` defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self._replace(cls, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        """Put every original back (in reverse order of installation)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- the program's layers -------------------------------------------

    def install(self) -> None:
        """Wrap every function the per-layer metrics are built from."""
        from repro.abr.base import ABRAlgorithm
        from repro.experiments import batch, dataplane, runner, scheduler, worker
        from repro.experiments.executors import PoolExecutorBackend
        from repro.experiments.leases import LeaseBoard
        from repro.experiments.store import SessionStore
        from repro.fleet import arrivals, runner as fleet_runner, sim
        from repro.network import traces
        from repro.network.link import StackedLinks, TraceLink
        from repro.player.core import LiveSessionCore, VodSessionCore
        from repro.video import dataset

        plan = scheduler.SweepScheduler
        self.patch_method(plan, "partition", "scheduler.partition")
        self.patch_method(plan, "plan_units", "scheduler.plan_units", self._observe_plan)
        self.patch_method(
            plan, "plan_grid_units", "scheduler.plan_grid_units", self._observe_plan
        )
        self.patch_function(worker, "sweep_batch", "worker.unit", self._observe_unit)
        self.patch_function(batch, "run_batch_metrics", "batch.run", _count_len)
        self.patch_method(StackedLinks, "download_finish", "link.stacked_finish")
        self.patch_method(TraceLink, "download", "link.download")
        self.patch_function(runner, "run_one_session", "session.scalar")
        for cls in _subclasses(ABRAlgorithm):
            if "select_level" in cls.__dict__:
                self.patch_method(cls, "select_level", "abr.select")
        for cls in (VodSessionCore, LiveSessionCore):
            for attr in ("begin", "on_fetch_done", "on_wait_done"):
                self.patch_method(cls, attr, "core.callback")
        self.patch_function(sim, "simulate_edge", "edge", _count_events)
        self.patch_function(arrivals, "edge_arrival_times", "arrivals", _count_len)
        self.patch_method(SessionStore, "get", "store.get", _count_found)
        self.patch_method(SessionStore, "put", "store.put")
        self.patch_method(SessionStore, "key_for", "store.key")
        self.patch_method(SessionStore, "has", "store.has")
        self.patch_method(LeaseBoard, "claim", "lease.claim", _count_truthy)
        self.patch_function(dataplane, "try_publish", "dataplane.publish", _count_nbytes)
        self.patch_method(PoolExecutorBackend, "execute", "executor.pool")
        self.patch_function(dataset, "build_video", "video.build")
        self.patch_function(traces, "synthesize_lte_traces", "traces.synth")
        self.patch_function(fleet_runner, "synthesize_edge_trace", "traces.synth")

    def _observe_plan(self, stat, args, units, wall, spent) -> None:
        specs = args[1]
        stat[ITEMS] += len(units)
        for unit in units:
            lanes = unit.stop - unit.start
            stat[HITS] += lanes
            if os.getpid() == self.parent_pid:
                self.shapes.setdefault(specs[unit.spec_idx].describe(), []).append(lanes)

    def _observe_unit(self, stat, args, result, wall, spent) -> None:
        self.units.append((os.getpid(), wall, spent))
        if os.getpid() != self.parent_pid:
            self._dump()

    # -- crossing the process boundary ----------------------------------

    def _after_fork(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0.0, 0, 0]
        for cell in self._active.values():
            cell[0] = 0
        del self._stack[:]
        del self.units[:]

    def _dump(self) -> None:
        path = self.workdir / f"probe-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stats": self.stats, "units": self.units}))
        os.replace(tmp, path)

    def collect_workers(self) -> None:
        """Fold (and delete) the totals files of exited workers."""
        for path in sorted(self.workdir.glob("probe-*.json")):
            payload = json.loads(path.read_text())
            for name, values in payload["stats"].items():
                stat = self._stat(name)
                for index, value in enumerate(values):
                    stat[index] += value
            self.units.extend(tuple(unit) for unit in payload["units"])
            path.unlink()

    def snapshot(self) -> Tuple[Dict[str, list], int]:
        """Copy of the totals plus the unit-list length, for deltas."""
        return {name: list(stat) for name, stat in self.stats.items()}, len(self.units)

    def delta(self, before: Tuple[Dict[str, list], int]):
        """Totals and work units accumulated since ``before``."""
        base, n_units = before
        out = {}
        for name, stat in self.stats.items():
            prev = base.get(name, [0, 0.0, 0.0, 0.0, 0, 0])
            out[name] = [now - then for now, then in zip(stat, prev)]
        return out, self.units[n_units:]


def _subclasses(cls) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found
