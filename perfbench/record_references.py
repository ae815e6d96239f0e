"""Record the reference digest of every case in every workload's pool.

    python3 perfbench/record_references.py

Runs each pool once, in a fresh interpreter per workload, and rewrites
references.json with the SHA-256 of each case's `results` object.  A
case that fails (raises, exits non-zero or reports passed: false) stops
the recording.  Run it only on a commit whose outputs are known good:
the digests committed with the benchmark come from the commit that
introduced it.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main() -> int:
    deadline = time.monotonic() + 3600
    digests = {}
    for name in workloads.WORKLOADS:
        result = run.spawn_pass("plain", workloads.pool(name), {}, deadline)
        for case in result["cases"]:
            if case["digest"] is None or case["error"] not in (None, "no reference digest for this case"):
                print(f"error: {case['argv']}: {case['error']}", file=sys.stderr)
                return 1
            digests[case["argv"]] = case["digest"]
        total = sum(c["seconds"] for c in result["cases"])
        print(f"{name}: {len(result['cases'])} cases, {total:.1f} s")
    with open(run.REFERENCES, "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
