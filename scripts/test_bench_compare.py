#!/usr/bin/env python3
"""Self-test of the bench regression gate's rules.

Each case writes a baseline and a candidate directory of BENCH_*.json
files, runs bench_compare.py on the pair and checks its exit code.
Sim-plane cells compare exactly; wall-plane numbers within 15% of the
baseline; wall-plane text and row labels exactly. A file or table on one
side only fails, and the baseline directory is never written.

Usage: test_bench_compare.py [path/to/bench_compare.py]
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

SIM = {
    "title": "gate self-test",
    "header": ["fleet", "digest", "frames", "loss", "digest match"],
    "rows": [["1k", "b456b0d859cbadd0", "1000", "0.535", "yes"]],
}
WALL = {
    "title": "overhead self-test",
    "header": ["vehicles", "overhead x", "digest match"],
    "rows": [["10000", "2.00", "yes"]],
    "plane": "wall",
}


def edit(table, row, col, cell):
    out = copy.deepcopy(table)
    out["rows"][row][col] = cell
    return out


def write_dir(path, files):
    """files: name -> list of tables, written as BENCH_<name>.json."""
    os.makedirs(path)
    for name, tables in files.items():
        with open(os.path.join(path, f"BENCH_{name}.json"), "w") as f:
            json.dump({"bench": name, "tables": tables}, f)


BASE = {"gate": [SIM, WALL]}
CASES = [
    # (what, candidate files, wanted exit code)
    ("identical tables", {"gate": [SIM, WALL]}, 0),
    ("sim-plane 'digest match' cell changed",
     {"gate": [edit(SIM, 0, 4, "no"), WALL]}, 1),
    ("sim-plane number moved by 2%",
     {"gate": [edit(SIM, 0, 3, "0.5457"), WALL]}, 1),
    ("wall-plane number moved by +10%",
     {"gate": [SIM, edit(WALL, 0, 1, "2.20")]}, 0),
    ("wall-plane number moved by +20%",
     {"gate": [SIM, edit(WALL, 0, 1, "2.40")]}, 1),
    ("wall-plane 'digest match' cell changed",
     {"gate": [SIM, edit(WALL, 0, 2, "NO")]}, 1),
    ("wall-plane row label moved by +10%",
     {"gate": [SIM, edit(WALL, 0, 0, "11000")]}, 1),
    ("wall table recorded as sim-plane",
     {"gate": [SIM, {k: v for k, v in WALL.items() if k != "plane"}]}, 1),
    ("candidate file with no baseline",
     {"gate": [SIM, WALL], "fresh": [SIM]}, 1),
    ("table missing from the candidate", {"gate": [SIM]}, 1),
    ("candidate table missing from the baseline",
     {"gate": [SIM, WALL, dict(SIM, title="new table")]}, 1),
]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    script = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        here, "bench_compare.py")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (what, files, want) in enumerate(CASES):
            base = os.path.join(tmp, f"base{i}")
            cand = os.path.join(tmp, f"cand{i}")
            write_dir(base, BASE)
            write_dir(cand, files)
            code = subprocess.run([sys.executable, script, base, cand],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            if code != want:
                failures.append(f"{what}: exit {code}, want {want}")
            if os.listdir(base) != ["BENCH_gate.json"]:
                failures.append(f"{what}: the baseline directory changed")
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        return 1
    print(f"bench gate: {len(CASES)} rule cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
