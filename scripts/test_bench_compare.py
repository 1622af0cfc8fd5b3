#!/usr/bin/env python3
"""Self-test of the bench regression gate's text-cell rule.

Writes a baseline/candidate pair of BENCH_*.json files that differ in one
"digest match" cell and expects bench_compare.py to exit 1, then an
identical pair and expects exit 0.

Usage: test_bench_compare.py [path/to/bench_compare.py]
"""

import json
import os
import subprocess
import sys
import tempfile


def write_bench(path, verdict):
    doc = {
        "bench": "gate",
        "tables": [{
            "title": "gate self-test",
            "header": ["fleet", "digest", "frames", "digest match"],
            "rows": [["1k", "b456b0d859cbadd0", "1000", verdict]],
        }],
    }
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "BENCH_gate.json"), "w") as f:
        json.dump(doc, f)


def run_gate(script, base, cand):
    return subprocess.run([sys.executable, script, base, cand, "--strict"],
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    script = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        here, "bench_compare.py")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        write_bench(base, "yes")
        changed = os.path.join(tmp, "changed")
        write_bench(changed, "no")
        same = os.path.join(tmp, "same")
        write_bench(same, "yes")
        code = run_gate(script, base, changed)
        if code != 1:
            failures.append(f"changed 'digest match' cell: exit {code}, "
                            f"want 1")
        code = run_gate(script, base, same)
        if code != 0:
            failures.append(f"identical tables: exit {code}, want 0")
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        return 1
    print("bench gate compares text cells exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
