"""Benchmark of record for the repro package (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Runs one workload from the checkout this file sits in: builds the
inputs from ``--seed``, times set-up, repeats whole rounds of the
workload for ``--seconds`` seconds, checks every round's outputs and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
the metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
"""

import time

START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def cpu_all() -> float:
    """CPU of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reap_children(timeout_s: float = 60.0) -> None:
    """Wait for every worker process to exit and be reaped.

    The pool executor shuts its pool down without waiting, so workers
    can outlive the sweep call; their CPU reaches ``RUSAGE_CHILDREN``
    only once they are reaped.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        alive = multiprocessing.active_children()
        if not alive:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"{len(alive)} worker process(es) did not exit")
        for proc in alive:
            proc.join(max(0.0, deadline - time.monotonic()))


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker if a pool started it."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def import_program():
    """Import the program from this checkout's ``src`` (never elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_round(workload, probes):
    """One timed round: wall and all-process CPU, then the untimed checks."""
    gc.collect()
    before = probes.snapshot() if probes is not None else None
    cpu0 = cpu_all()
    wall0 = time.perf_counter()
    output = workload.run()
    wall = time.perf_counter() - wall0
    reap_children()
    cpu = cpu_all() - cpu0
    layers = None
    if probes is not None:
        probes.collect_workers()
        layers = probes.delta(before)
    outcome = workload.finish(output)
    return {"wall": wall, "cpu": cpu, "outcome": outcome, "layers": layers}


def end_to_end(rounds, setup_s, peak_rss_mb):
    def median(key):
        return statistics.median(key(r) for r in rounds)

    return {
        "sessions_per_s": (median(lambda r: r["outcome"].passed / r["wall"]), "sessions/s"),
        "sim_s_per_wall_s": (median(lambda r: r["outcome"].sim_s / r["wall"]), "s/s"),
        "cpu_s_per_ksession": (
            median(lambda r: r["cpu"] / max(r["outcome"].passed, 1) * 1000.0),
            "CPU-s",
        ),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "store_mb": (rounds[-1]["outcome"].disk_bytes / 2**20, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - START

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return run(args, workloads, workdir, import_s)
    finally:
        reap_children()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workloads, workdir, import_s) -> int:
    workload = workloads.WORKLOADS[args.workload](workdir)
    probes = None
    if args.trace:
        import layers
        from probes import Probes

        probes = Probes(workdir)
        probes.install()
        setup_before = probes.snapshot()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    plain = None
    if probes is not None:
        setup_layers = probes.delta(setup_before)
        probes.uninstall()
        plain = measure_round(workload, None)
        probes.install()

    rounds = []
    while not rounds or sum(r["wall"] for r in rounds) < args.seconds:
        rounds.append(measure_round(workload, probes))
    if probes is not None:
        probes.uninstall()

    problems = [p for r in rounds for p in r["outcome"].problems]
    problems += workload.final_checks()
    if probes is not None:
        problems += layers.cpu_accounting_problems(rounds)
    attempted = sum(r["outcome"].attempted for r in rounds)
    failed = attempted - sum(r["outcome"].passed for r in rounds)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(own, kids) / 1024.0

    if probes is None:
        metrics = end_to_end(rounds, setup_s, peak_rss_mb)
    else:
        for line in layers.report_lines(args.workload, rounds, probes):
            print(line)
        metrics = layers.per_layer(rounds, setup_layers, len(setup_times), plain)

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
