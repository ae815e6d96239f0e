"""One pass over a case list, in a fresh interpreter.

Reads {"mode", "cases", "references"} as JSON on stdin and prints one
JSON object on stdout.  Modes:

  plain     time each `hsdfactor.cli.run(argv)` call, nothing installed;
  traced    the same with the span wrappers of tracing.py installed;
  counting  the counters of tracing.py installed, no timing kept.

In plain and traced passes the speed probe of speed.py samples the
process throughout, and each case record gets "ref_s": its seconds at the
reference speed.

Usage: PYTHONPATH=src python3 perfbench/worker.py < request.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

import speed
import tracing


def digest(results) -> str:
    """SHA-256 of a report's `results` object in canonical JSON."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def case_key(argv) -> str:
    return " ".join(argv)


def _run_case(cli, argv):
    """(seconds, exit code, stdout); the code is None when cli.run raised."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(list(argv))
    except SystemExit as exc:  # argparse rejects an argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is one failed case; the pass goes on
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, code, out.getvalue()


def _check(code, stdout, reference):
    """(digest or None, reason the case failed or None)."""
    if code is None:
        return None, "raised: " + stdout.strip().splitlines()[-1]
    if code != 0:
        return None, f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None, "output is not one JSON report"
    found = digest(payload.get("results"))
    if payload.get("passed") is not True:
        return found, "report says passed: false"
    if reference is None:
        return found, "no reference digest for this case"
    if found != reference:
        return found, "results differ from the reference digest"
    return found, None


def run_pass(mode: str, cases, references: dict) -> dict:
    """Run the cases in order in this process; see the module docstring."""
    from hsdfactor import cli

    recorder = counters = None
    if mode == "traced":
        recorder = tracing.SpanRecorder()
        uninstall = recorder.install()
    elif mode == "counting":
        counters = tracing.Counters()
        uninstall = counters.install()
    elif mode == "plain":
        uninstall = None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sampled = mode != "counting"
    records, probes = [], []
    try:
        if sampled:
            speed.start()
        for argv in cases:
            speed.take()
            seconds, code, stdout = _run_case(cli, argv)
            probes.append(speed.take())
            found, error = _check(code, stdout, references.get(case_key(argv)))
            record = {"argv": case_key(argv), "seconds": seconds, "digest": found, "error": error}
            if recorder is not None:
                record["spans"] = recorder.take()
            records.append(record)
        if sampled:
            speed.stop()
            every = [t for case in probes for t in case]
            for record, case in zip(records, probes):
                record["probes"] = len(case)
                record["ref_s"] = record["seconds"] * speed.scale(case, every)
        out = {"cases": records, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if recorder is not None:
            out["caches"] = tracing.cache_ratios()
        if counters is not None:
            out["counts"] = dict(counters.counts)
        return out
    finally:
        if sampled:
            speed.stop()
        if uninstall is not None:
            uninstall()


def main():
    request = json.load(sys.stdin)
    result = run_pass(request["mode"], request["cases"], request.get("references", {}))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
