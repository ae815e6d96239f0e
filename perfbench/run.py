"""Benchmark entry point: one seeded workload through `hsdfactor.cli.run`.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
./src, so there is nothing to build.  A run is one client in a closed
loop: each pass runs the seeded case list once, in order, in a fresh
interpreter, and the next pass starts when the previous one has ended.
Times are reported in seconds at the reference speed: each is scaled by
the speed the timed process measured while it ran (speed.py), so that the
shared host's swings in speed do not read as changes in the program.

--trace 0 runs plain passes while another one fits in --seconds (at
least one), measures set-up (a fresh interpreter importing
hsdfactor.cli) a few times before each pass and after the last, and
prints the end-to-end metrics.
--trace 1 runs three passes of the same list: plain, traced (spans) and
counting (counters), and prints the per-layer metrics.  Its length is
those three passes, whatever --seconds says.

Every case's `results` object is checked against references.json.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable summary.
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
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCES = HERE / "references.json"

RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_SPAWNS = 4  # per pass, plus one batch after the last

END_TO_END = {"run_s": "s", "slowest_case_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name: "s" for name in tracing.SPAN_METRICS}
    units.update({name: "count" for name in tracing.CALL_METRICS})
    units.update({name: "count" for name in tracing.COUNT_METRICS})
    units.update({name: "ratio" for name in tracing.COUNT_RATIOS})
    units.update({name: "ratio" for name in tracing.CACHE_METRICS})
    units["trace.overhead_share"] = "ratio"
    return units


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_LIMIT_S} s limit")
    return left


def spawn_pass(mode: str, cases, references: dict, deadline: float) -> dict:
    """Run one pass in a fresh interpreter; returns the worker's record."""
    request = json.dumps({"mode": mode, "cases": cases, "references": references})
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=request, capture_output=True, text=True,
            env=_env(), cwd=ROOT, timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise BenchError(f"{mode} pass did not end within the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


_SETUP_CHILD = """\
import time, speed
speed.start()
import hsdfactor.cli
done = time.monotonic()
speed.stop()
print(done, speed.scale(speed.take()))
"""


def measure_setup(count: int, deadline: float) -> tuple:
    """Seconds from starting a fresh interpreter until hsdfactor.cli is imported.

    The child reads CLOCK_MONOTONIC, which is system-wide, right after the
    import, so its teardown and exit are not counted.  It samples its speed
    during the import.  Returns the raw samples and the same at the
    reference speed.
    """
    raw, ref = [], []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD], env=_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=_remaining(deadline))
        done, scale = map(float, proc.stdout.split()[-2:])
        raw.append(done - start)
        ref.append(raw[-1] * scale)
    return raw, ref


def describe(samples, unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} {unit}"
    if n >= 20:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.6g} {unit}"
    else:
        text += ", no percentile above the median has ten samples beyond it"
    return text + f" (n={n})"


def context(args) -> dict:
    """Machine and run context recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hsdfactor").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src_hash.hexdigest()[:16],
    }


def end_to_end(cases, references, args, deadline, lines) -> tuple:
    # The first import writes the bytecode caches; it is not timed.  Set-up
    # samples are taken between passes, so they span the run like the passes.
    measure_setup(1, deadline)
    setup_raw, setup = [], []
    passes = []
    started = time.monotonic()
    while True:
        begun = time.monotonic()
        raw, ref = measure_setup(SETUP_SPAWNS, deadline)
        setup_raw += raw
        setup += ref
        passes.append(spawn_pass("plain", cases, references, deadline))
        if time.monotonic() - started + (time.monotonic() - begun) > args.seconds:
            break
    raw, ref = measure_setup(SETUP_SPAWNS, deadline)
    setup_raw += raw
    setup += ref
    run_s = [sum(c["ref_s"] for c in p["cases"]) for p in passes]
    slowest = [max(c["ref_s"] for c in p["cases"]) for p in passes]
    rss = [p["maxrss_kb"] / 1024 for p in passes]
    latencies = [c["ref_s"] for p in passes for c in p["cases"]]
    metrics = {
        "run_s": statistics.median(run_s),
        "slowest_case_s": statistics.median(slowest),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    lines.append("times in seconds at the reference speed (speed.py); raw: as the clock read them")
    lines.append(f"run_s           {describe(run_s, 's')}, one sample per pass")
    lines.append(f"slowest_case_s  {describe(slowest, 's')}, one sample per pass")
    lines.append(f"setup_s         {describe(setup, 's')}, one sample per fresh interpreter")
    lines.append(f"peak_rss_mb     {describe(rss, 'MB')}, one sample per pass")
    lines.append(f"case latency    {describe(latencies, 's')}")
    lines.append(f"raw run_s       {describe([sum(c['seconds'] for c in p['cases']) for p in passes], 's')}")
    lines.append(f"raw setup_s     {describe(setup_raw, 's')}")
    return metrics, passes


def _ratio(num: float, den: float):
    return num / den if den else None


def per_layer(cases, references, deadline, lines) -> tuple:
    plain = spawn_pass("plain", cases, references, deadline)
    traced = spawn_pass("traced", cases, references, deadline)
    counting = spawn_pass("counting", cases, references, deadline)
    spans = {}
    worst_gap = 0.0
    for case in traced["cases"]:
        for name, span in case["spans"].items():
            total = spans.setdefault(name, {"self_s": 0.0, "calls": 0})
            total["self_s"] += span["self_s"]
            total["calls"] += span["calls"]
        gap = case["seconds"] - sum(s["self_s"] for s in case["spans"].values())
        worst_gap = max(worst_gap, abs(gap))
    values = {}
    for metric, names in tracing.SPAN_METRICS.items():
        values[metric] = sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
    for metric, name in tracing.CALL_METRICS.items():
        values[metric] = spans.get(name, {}).get("calls", 0)
    counts = counting["counts"]
    for metric in tracing.COUNT_METRICS:
        values[metric] = counts.get(metric, 0)
    for metric, (num, den) in tracing.COUNT_RATIOS.items():
        values[metric] = _ratio(counts.get(num, 0), counts.get(den, 0))
    for metric, info in traced["caches"].items():
        values[metric] = _ratio(info["hits"], info["lookups"])
    plain_s = sum(c["ref_s"] for c in plain["cases"])
    traced_s = sum(c["ref_s"] for c in traced["cases"])
    values["trace.overhead_share"] = traced_s / plain_s - 1
    lines.append(f"plain pass {plain_s:.4f} s, traced pass {traced_s:.4f} s at the reference speed; "
                 f"largest gap between a case's wall time and its span self times: {worst_gap * 1e3:.3f} ms")
    lines.append("spans by self time (s, outermost calls):")
    for name, total in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:40s} {total['self_s']:10.4f} {total['calls']:9d}")
    units = per_layer_units()
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if value is None:
            lines.append(f"{name:32s} absent: its denominator is 0 on this workload; reported as 0")
            value = 0.0
        else:
            lines.append(f"{name:32s} {value:.6g} {unit}")
        metrics[name] = value
    return metrics, [plain, traced, counting]


def tally(passes) -> tuple:
    """(cases attempted, failed case records) over the given passes."""
    records = [c for p in passes for c in p["cases"]]
    return len(records), [c for c in records if c["error"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hsdfactor" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'hsdfactor' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    with open(REFERENCES) as fh:
        references = json.load(fh)
    cases = workloads.draw(args.workload, args.seed)
    lines = ["context " + json.dumps(context(args), sort_keys=True)]
    try:
        if args.trace:
            metrics, passes = per_layer(cases, references, deadline, lines)
            units = per_layer_units()
        else:
            metrics, passes = end_to_end(cases, references, args, deadline, lines)
            units = END_TO_END
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failures = tally(passes)
    lines.append(f"failed_share    {len(failures) / attempted:.6g} ({len(failures)} of {attempted} cases "
                 f"in {len(passes)} passes of {len(cases)} cases)")
    for case in failures[:10]:
        lines.append(f"  FAILED {case['argv']}: {case['error']}")
    for line in lines:
        print(line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
