"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Each check runs a few cheap cases from the pools in fresh interpreters,
the way run.py does, and takes well under a minute.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import run
import speed
import workloads

# Cheap cases from the pools, one per layer family.
CASES = [
    ["factorize", "--mu", "2,1", "--power", "3"],
    ["verify", "path", "--mu", "2,1,1"],
    ["verify", "identities", "--mu", "1", "--m", "3", "--degree", "2"],
    ["kernel", "--mu", "1", "--m", "3", "--degree", "4"],
]


def _expect(ok: bool, message: str):
    if not ok:
        raise RuntimeError(message)


def _references() -> dict:
    with open(run.REFERENCES) as fh:
        return json.load(fh)


def _deadline() -> float:
    return time.monotonic() + 120


def _probe(code: str) -> subprocess.CompletedProcess:
    """Run a snippet in a fresh interpreter that imports the program and tracing."""
    return subprocess.run([sys.executable, "-c", code], env=run._env(), cwd=run.HERE,
                          capture_output=True, text=True, timeout=60)


def check_corrupted_digest_fails():
    """One corrupted reference digest makes failed_share positive."""
    references = _references()
    good = run.spawn_pass("plain", CASES, references, _deadline())
    attempted, failures = run.tally([good])
    _expect(attempted == len(CASES) and not failures, f"clean pass failed: {failures}")
    corrupted = dict(references)
    key = " ".join(CASES[2])
    corrupted[key] = "0" * 64
    bad = run.spawn_pass("plain", CASES, corrupted, _deadline())
    attempted, failures = run.tally([bad])
    _expect(len(failures) / attempted > 0, "a corrupted digest did not raise failed_share")
    _expect([c["argv"] for c in failures] == [key], f"wrong cases failed: {failures}")


def check_speed_scaling():
    """Times are scaled by the probes taken while they ran: a process at
    half the reference speed reports half its clock time."""
    ref = speed.REFERENCE_S
    _expect(speed.scale([2 * ref] * speed.MIN_PROBES) == 0.5, "scale of a half-speed process is not 0.5")
    _expect(speed.scale([ref], [4 * ref] * 3) == 0.25, "a case with too few probes did not use the pass's")
    _expect(speed.scale([], []) > 0, "no probes at all gave no scale")
    timed = run.spawn_pass("plain", CASES, _references(), _deadline())
    for case in timed["cases"]:
        _expect(case["ref_s"] > 0 and case["probes"] >= 0, f"{case['argv']}: no scaled time: {case}")
    _expect(max(c["probes"] for c in timed["cases"]) >= speed.MIN_PROBES, "no case was probed")
    raw, ref_s = run.measure_setup(2, _deadline())
    _expect(len(raw) == len(ref_s) == 2 and all(t > 0 for t in raw + ref_s), f"set-up samples {raw} {ref_s}")


def check_span_self_times_sum_to_wall_time():
    """Per case, the span self times add up to the traced wall time."""
    traced = run.spawn_pass("traced", CASES, _references(), _deadline())
    for case in traced["cases"]:
        covered = sum(s["self_s"] for s in case["spans"].values())
        gap = abs(case["seconds"] - covered)
        _expect(gap <= max(1e-3, 0.01 * case["seconds"]),
                f"{case['argv']}: wall {case['seconds']:.6f} s, span self times {covered:.6f} s")
        _expect(case["spans"]["cli.run"]["calls"] == 1, f"{case['argv']}: cli.run span not the root")
    kernel = traced["cases"][3]["spans"]
    _expect(kernel["polyspace.apply"]["calls"] > 0, "polyspace.apply was not traced through hsd")


def check_reentrant_calls_count_once():
    """A recursive call inside a traced function adds no second span."""
    probe = (
        "import tracing, hsdfactor.cli\n"
        "from hsdfactor import polyspace as p, reports as r\n"
        "recorder = tracing.SpanRecorder()\n"
        "undo = recorder.install()\n"
        "p.apply(p.Compose((p.Dirac(0), p.Dirac(0))), p.homogeneous_basis(3, 0, (2,))[0])\n"
        "r.jsonable([[1, [2]], {'a': [3]}])\n"
        "spans = recorder.take()\n"
        "undo()\n"
        "print(spans['polyspace.apply']['calls'], spans['reports.jsonable']['calls'])\n"
    )
    proc = _probe(probe)
    _expect(proc.returncode == 0, f"probe failed: {proc.stderr[-1000:]}")
    _expect(proc.stdout.split() == ["1", "1"], f"recursive calls counted more than once: {proc.stdout!r}")


def check_counting_pass():
    """Counters see the scalar operators and leave the program unpatched."""
    counting = run.spawn_pass("counting", CASES[2:3], _references(), _deadline())
    counts = counting["counts"]
    for name in ("gaussian.mul_calls", "gaussian.add_calls", "linalg.matmul_scalar_mults", "hsd.compose_mat_products"):
        _expect(counts.get(name, 0) > 0, f"counting pass saw no {name}")
    _expect(not counting["cases"][0]["error"], f"counting pass changed a result: {counting['cases'][0]}")
    probe = (
        "import tracing, hsdfactor.cli, hsdfactor.gaussian as g, hsdfactor.hsd as h, hsdfactor.polyspace as p\n"
        "state = lambda: (g.QQi.__add__, g.QQi.__radd__, h.apply, p.apply, h.casimir_projectors)\n"
        "before = state()\n"
        "undo = tracing.SpanRecorder().install()\n"
        "assert h.apply is p.apply and p.apply is not before[2] and h.casimir_projectors is not before[4]\n"
        "undo()\n"
        "assert state() == before\n"
        "undo = tracing.Counters().install()\n"
        "assert g.QQi.__add__ is not before[0] and g.QQi.__radd__ is not before[1]\n"
        "undo()\n"
        "assert state() == before\n"
    )
    proc = _probe(probe)
    _expect(proc.returncode == 0, f"install/uninstall left the program patched: {proc.stderr[-1000:]}")


def check_benchmark_json_matches():
    """BENCHMARK.json names exactly the metrics run.py prints."""
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _expect(e2e == run.END_TO_END, f"end_to_end differs: {e2e} vs {run.END_TO_END}")
    _expect(layer == run.per_layer_units(), "per_layer differs from run.per_layer_units()")
    _expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names differ")


def check_draws_are_seeded_and_referenced():
    """The same seed gives the same cases, every pool case has a digest, and
    no excluded case is in a pool."""
    references = _references()
    excluded = {argv for argv, _ in workloads.EXCLUDED}
    for name in workloads.WORKLOADS:
        inside = excluded & {" ".join(a) for a in workloads.pool(name)}
        _expect(not inside, f"{name}: excluded cases in the pool: {sorted(inside)}")
        _expect(workloads.draw(name, 7) == workloads.draw(name, 7), f"{name}: draw is not deterministic")
        missing = [" ".join(a) for a in workloads.pool(name) if " ".join(a) not in references]
        _expect(not missing, f"{name}: no reference digest for {missing[:3]}")
        for seed in range(20):
            drawn = {" ".join(a) for a in workloads.draw(name, seed)}
            _expect(drawn <= set(references), f"{name}: seed {seed} draws a case outside the pool")


CHECKS = [
    check_benchmark_json_matches,
    check_draws_are_seeded_and_referenced,
    check_corrupted_digest_fails,
    check_speed_scaling,
    check_span_self_times_sum_to_wall_time,
    check_reentrant_calls_count_once,
    check_counting_pass,
]


def main() -> int:
    for check in CHECKS:
        try:
            check()
        except (RuntimeError, run.BenchError) as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
