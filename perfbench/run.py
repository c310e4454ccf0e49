"""The repository benchmark: one workload, a seed, a time budget.

Usage (from the repository root)::

    python3 perfbench/run.py --workload simulate-large --seed 1 --seconds 25 --trace 0

Each pass of the workload runs in a fresh worker process
(``perfbench/worker.py``), one pass after another, so every pass pays the
import and first-call costs a ``repro-gossip`` command pays.  Passes repeat
until the next one would overrun ``--seconds`` (at least three run).  The
metrics are medians over passes.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, including the tracing overhead between the two.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
host fingerprint.  Results from different hosts or sources are not
comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("simulate-large", "optimize-small", "faults-mc")

MIN_PASSES = 3
#: Pass ``k`` of a run with seed ``s`` draws its inputs from seed
#: ``PASS_SEED_STRIDE * s + k``: every pass measures fresh inputs, and the
#: median over passes averages out how much work a given seed happens to
#: cost (a search walk's length, say) as well as host noise.
PASS_SEED_STRIDE = 1000
#: Seconds the speed probe (``worker.SpeedProbe``) takes at the reference
#: speed: its typical time on the 2-core Xeon host the benchmark was written
#: on.  Only a scale factor; it turns probe units back into seconds.
PROBE_REFERENCE_S = 0.01
#: No pass starts after this point, whatever ``--seconds`` says, and a
#: pass still running at the deadline has hung: a run must end in 180 s.
LAST_START_S = 60
DEADLINE_S = 170


def _declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit, as BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _git_rev() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """SHA-256 over the program's Python sources, for runs outside git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
    }


def _run_worker(args: argparse.Namespace, seed: int, traced: bool, timeout: float) -> dict | None:
    """One pass in a fresh process; ``None`` when the worker broke."""
    command = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--scale", args.scale,
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"worker pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker pass failed ({proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _median(values) -> float:
    return statistics.median(list(values))


def _reference_seconds(result: dict) -> float:
    """One pass's job-list wall time at the speed probe's reference speed.

    Other tenants of a shared host slow it down by up to 2x for seconds to
    minutes at a time, so raw job times swing far more between runs than
    any code change worth detecting.  Each job's time is divided by the
    speed probe timed around it and the sum is scaled back to seconds with
    ``PROBE_REFERENCE_S``.
    """
    return PROBE_REFERENCE_S * sum(
        seconds / result["probe"][name] for name, seconds in result["jobs"].items()
    )


def collect(args: argparse.Namespace) -> list[dict | None]:
    """Run passes until the next one would overrun ``args.seconds``."""
    passes: list[dict | None] = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + longest > args.seconds:
            break
        if elapsed > LAST_START_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        result = _run_worker(
            args, PASS_SEED_STRIDE * args.seed + len(passes), traced, DEADLINE_S - elapsed
        )
        longest = max(longest, time.perf_counter() - pass_start)
        if result is not None:
            print(
                f"pass {len(passes)}: traced={int(traced)} wall={result['wall_s']:.3f}s "
                f"setup={result['import_s'] + result['build_s']:.3f}s "
                f"rss={result['peak_rss_mb']:.1f}MiB failed={result['failed']}"
            )
            for name, reason in result["failures"].items():
                print(f"  FAILED {name}: {reason}", file=sys.stderr)
        passes.append(result)
    return passes


def summarize(passes: list[dict | None], trace: bool) -> dict | None:
    """The result object, or ``None`` when no untraced pass completed."""
    done = [p for p in passes if p is not None]
    plain = [p for p in done if not p["traced"]]
    if not plain:
        return None
    jobs = done[0]["attempted"]
    attempted = sum(p["attempted"] for p in done) + jobs * (len(passes) - len(done))
    failed = sum(p["failed"] for p in done) + jobs * (len(passes) - len(done))
    end_to_end, per_layer = _declared_metrics()

    if not trace:
        values = {
            "wall_s": _median(_reference_seconds(p) for p in plain),
            "setup_s": PROBE_REFERENCE_S
            * _median((p["import_s"] + p["build_s"]) / p["setup_probe_s"] for p in plain),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain),
        }
        units = end_to_end
    else:
        traced = [p for p in done if p["traced"]]
        if not traced:
            return None
        values = {
            name: _median(p["layers"][name] for p in traced)
            for name in traced[0]["layers"]
        }
        traced_wall = _median(_reference_seconds(p) for p in traced)
        values.update(
            {
                "setup.import_s": _median(p["import_s"] for p in done),
                "setup.build_s": _median(p["build_s"] for p in done),
                # The first passes always run, so this stays a pure function
                # of the seed however many passes fit in the time budget.
                "search_gap_rounds": _median(
                    p["summary"].get("search_gap_rounds", 0) for p in done[:MIN_PASSES]
                ),
                "failed_ratio": failed / attempted,
                "wall.raw_s": _median(p["wall_s"] for p in plain),
                "probe.s": _median(t for p in done for t in p["probe"].values()),
                "trace.wall_s": traced_wall,
                "trace.overhead_ratio": traced_wall
                / _median(_reference_seconds(p) for p in plain),
            }
        )
        units = per_layer
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "toy"),
        default="full",
        help="toy shrinks every instance (self-tests only)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    result = summarize(collect(args), bool(args.trace))
    if result is None:
        print("no pass completed; no result", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
