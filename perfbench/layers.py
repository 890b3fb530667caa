"""Per-layer metrics of a traced run, derived from the probe totals.

Every metric is per round (the rounds of a run repeat the same work, so
counts are exact), except ``video.build_s`` and ``traces.synth_s``,
which add the time of one set-up to that of one round: inputs are built
in set-up, and the fleet also builds its own inside the round.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

from probes import CALLS, CHILD, CPU, HITS, ITEMS, WALL

_ZERO = [0, 0.0, 0.0, 0.0, 0, 0]
_PLANNERS = ("scheduler.partition", "scheduler.plan_units", "scheduler.plan_grid_units")


def _sum_rounds(rounds) -> Dict[str, list]:
    total: Dict[str, list] = defaultdict(lambda: list(_ZERO))
    for r in rounds:
        for name, stat in r["layers"][0].items():
            acc = total[name]
            for index, value in enumerate(stat):
                acc[index] += value
    return total


def _walls_by_pid(units) -> Dict[int, List[float]]:
    """Unit wall times of each process, in the order it ran them."""
    by_pid: Dict[int, List[float]] = defaultdict(list)
    for pid, wall, _cpu in units:
        by_pid[pid].append(wall)
    return by_pid


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rounds, setup_layers, n_setups: int, plain) -> Dict[str, Tuple[float, str]]:
    n = len(rounds)
    stats = _sum_rounds(rounds)
    setup_stats = setup_layers[0]

    def get(name: str, field: int) -> float:
        return stats[name][field] / n if name in stats else 0.0

    def built(name: str) -> float:
        return setup_stats.get(name, _ZERO)[WALL] / n_setups + get(name, WALL)

    first: List[float] = []
    later: List[float] = []
    for r in rounds:
        for walls in _walls_by_pid(r["layers"][1]).values():
            first.append(walls[0])
            later += walls[1:]
    sessions = sum(r["outcome"].passed for r in rounds) / n
    units = sum(get(name, ITEMS) for name in _PLANNERS)
    lanes = sum(get(name, HITS) for name in _PLANNERS)
    gets = get("store.get", CALLS)
    claims = get("lease.claim", CALLS)
    traced_wall = statistics.median(r["wall"] for r in rounds)
    return {
        "scheduler.units": (units, "count"),
        "scheduler.lanes_per_unit": (_ratio(lanes, units), "lanes"),
        "scheduler.plan_s": (sum(get(name, WALL) for name in _PLANNERS), "s"),
        "worker.unit_cpu_s": (get("worker.unit", CPU), "CPU-s"),
        "worker.first_unit_s": (statistics.fmean(first) if first else 0.0, "s"),
        "worker.later_unit_s": (statistics.fmean(later) if later else 0.0, "s"),
        "batch.sessions": (get("batch.run", ITEMS), "count"),
        "batch.cpu_s": (get("batch.run", CPU), "CPU-s"),
        "batch.steps": (get("link.stacked_finish", CALLS), "count"),
        "link.stacked_finish_s": (get("link.stacked_finish", WALL), "s"),
        "link.download_s": (get("link.download", WALL), "s"),
        "session.scalar_sessions": (get("session.scalar", CALLS), "count"),
        "session.scalar_cpu_s": (get("session.scalar", CPU), "CPU-s"),
        "abr.select_calls": (get("abr.select", CALLS), "count"),
        "abr.select_s": (get("abr.select", WALL), "s"),
        "core.callbacks": (get("core.callback", CALLS), "count"),
        "core.callback_s": (get("core.callback", WALL), "s"),
        "edge.s": (get("edge", WALL), "s"),
        "edge.events": (get("edge", ITEMS), "count"),
        "edge.self_s": (get("edge", WALL) - get("edge", CHILD), "s"),
        "arrivals.count": (get("arrivals", ITEMS), "count"),
        "arrivals.s": (get("arrivals", WALL), "s"),
        "store.gets": (gets, "count"),
        "store.puts": (get("store.put", CALLS), "count"),
        "store.get_s": (get("store.get", WALL), "s"),
        "store.put_s": (get("store.put", WALL), "s"),
        "store.key_s": (get("store.key", WALL), "s"),
        "store.has_s": (get("store.has", WALL), "s"),
        "store.hit_ratio": (_ratio(get("store.get", HITS), gets), "ratio"),
        "store.gets_per_session": (_ratio(gets, sessions), "ratio"),
        "lease.claims": (claims, "count"),
        "lease.claim_s": (get("lease.claim", WALL), "s"),
        "lease.claim_success_ratio": (_ratio(get("lease.claim", HITS), claims), "ratio"),
        "dataplane.publish_s": (get("dataplane.publish", WALL), "s"),
        "dataplane.bytes": (get("dataplane.publish", ITEMS), "bytes"),
        "executor.parent_cpu_s": (get("executor.pool", CPU), "CPU-s"),
        "video.build_s": (built("video.build"), "s"),
        "traces.synth_s": (built("traces.synth"), "s"),
        "trace.overhead_pct": ((traced_wall / plain["wall"] - 1.0) * 100.0, "%"),
    }


def cpu_accounting_problems(rounds) -> List[str]:
    """Self-test: a round's counted CPU covers its work units' CPU.

    Work units run inside the workers, so this fails whenever worker
    CPU goes missing from the round's total.
    """
    problems = []
    for index, r in enumerate(rounds):
        unit_cpu = r["layers"][0].get("worker.unit", _ZERO)[CPU]
        if r["cpu"] < unit_cpu:
            problems.append(
                f"round {index}: counted {r['cpu']:.3f} CPU-s, "
                f"less than the {unit_cpu:.3f} CPU-s its work units used"
            )
    return problems


def report_lines(workload: str, rounds, probes) -> List[str]:
    """Unit shape per scheme and each worker's first unit against the rest."""
    lines = []
    n = len(rounds)
    for scheme, lanes in sorted(probes.shapes.items()):
        lines.append(
            f"unit-shape {workload} scheme={scheme!r} units={len(lanes) / n:g} "
            f"lanes/unit mean={statistics.fmean(lanes):.1f} "
            f"min={min(lanes)} max={max(lanes)}"
        )
    for pid, walls in sorted(_walls_by_pid(rounds[-1]["layers"][1]).items()):
        later = walls[1:]
        lines.append(
            f"worker {workload} pid={pid} units={len(walls)} first_unit_s={walls[0]:.4f} "
            f"later_unit_mean_s={statistics.fmean(later) if later else 0.0:.4f}"
        )
    return lines
