"""One pass of a workload in a fresh process: set up, run the jobs, check.

Usage (from the repository root)::

    python3 perfbench/worker.py --workload simulate-large --seed 1 --trace 0

Prints one JSON object with the pass's set-up times, job wall time, peak
resident memory, job failures and, with ``--trace 1``, the per-layer
metrics.  ``perfbench/run.py`` starts one of these per pass so that every
pass pays the first-call costs a fresh ``repro-gossip`` command pays.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Thread-pool variables of the BLAS/OpenMP runtimes NumPy may load.  The
#: box is small and shared, and no workload asks for parallelism, so each
#: pool is capped at one thread before NumPy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Variables that would change what the program runs: a pinned engine
#: bypasses ``engine="auto"``, a trace path adds I/O to every run.
PROGRAM_VARS = ("REPRO_SIM_ENGINE", "REPRO_TRACE")


def run_pass(workload: str, seed: int, *, traced: bool, scale: str = "full") -> dict:
    """Set up and run one pass of ``workload``; return its measurements."""
    start = time.perf_counter()
    import tracer as tracing
    import workloads

    imported = time.perf_counter()
    bench = workloads.build(workload, seed, scale)
    built = time.perf_counter()
    probe = SpeedProbe()
    probe()
    setup_probe = probe()

    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    measured = Measured()
    stats = None
    if traced:
        from repro import telemetry

        recorder = telemetry.StatsRecorder()
        with telemetry.recording(recorder), tracing.instrument(tracer):
            measured.run_jobs(bench, probe, tracer)
        stats = recorder.stats
    else:
        measured.run_jobs(bench, probe, tracer)

    failures = measured.failures
    try:
        failures.update(bench.check(measured.digests))
    except Exception:  # a crashing check fails every job it was checking
        reason = traceback.format_exc(limit=3)
        failures.update({name: reason for name in measured.digests})

    wall = sum(measured.seconds.values())
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "import_s": imported - start,
        "build_s": built - imported,
        "setup_probe_s": setup_probe,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(bench.jobs),
        "failed": len(failures),
        "failures": failures,
        "jobs": measured.seconds,
        "probe": measured.probe_s,
        "summary": bench.summary(
            {name: value for name, value in measured.digests.items() if name not in failures}
        ),
    }
    if traced:
        result["layers"] = tracing.layer_metrics(tracer, stats, measured.engine_s, wall)
    return result


class SpeedProbe:
    """A fixed mix of interpreter and NumPy work, timed between jobs.

    The host's speed drifts by up to 2x as other tenants come and go; the
    probe's time tracks that drift, so a job's time divided by the probe
    times around it is steady where the raw time is not.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._words = rng.integers(0, 2**63, size=(2048, 32), dtype=np.uint64)
        self._order = rng.permutation(2048)
        self._big = rng.integers(0, 255, size=8 << 20, dtype=np.uint8)

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for k in range(50000):
            total += k * k
        words = self._words
        for _ in range(8):
            words = words[self._order] | self._words
        self._big.sum()
        return time.perf_counter() - start


class Measured:
    """What one pass's jobs produced, keyed by job name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.probe_s: dict[str, float] = {}
        self.digests: dict[str, object] = {}
        self.failures: dict[str, str] = {}
        #: engine time inside simulate jobs, by ``(instance, kind)``
        self.engine_s: dict[tuple[str, str], float] = {}

    def run_jobs(self, bench, probe: SpeedProbe, tracer) -> None:
        """Run the jobs one after another; only ``job.run`` is timed, and
        the speed probe runs between every two jobs."""
        before = probe()
        for job in bench.jobs:
            engine_before = tracer.total["engine"] if tracer.enabled else 0.0
            started = time.perf_counter()
            try:
                output = job.run(tracer)
            except Exception:
                self.failures[job.name] = traceback.format_exc(limit=3)
                output = None
            self.seconds[job.name] = time.perf_counter() - started
            after = probe()
            self.probe_s[job.name] = (before + after) / 2
            before = after
            if job.name in self.failures:
                continue
            if tracer.enabled and job.kind:
                self.engine_s[(job.instance, job.kind)] = (
                    tracer.total["engine"] - engine_before
                )
            try:
                self.digests[job.name] = job.digest(output)
            except Exception:
                self.failures[job.name] = traceback.format_exc(limit=3)
            del output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    for name in PROGRAM_VARS:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    result = run_pass(args.workload, args.seed, traced=bool(args.trace), scale=args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
