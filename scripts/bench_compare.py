#!/usr/bin/env python3
"""Bench regression gate: compare BENCH_*.json results against baselines.

Usage: bench_compare.py <baseline_dir> <candidate_dir>

Each BENCH_<name>.json is {"bench": name, "tables": [{title, header,
rows}, ...]} (bench/bench_output.hpp). A table is sim-plane unless it
carries "plane": "wall". Sim-plane cells are pure functions of the seeds
and configs baked into each bench, so every one must equal its baseline
as text. Wall-plane tables hold the capture, flight and prof overhead
rows, medians of paired wall-clock ratios: their numeric cells may move
by up to WALL_TOLERANCE of the baseline value, while their text cells and
each row's label (its first cell) must match exactly.

A result file or a table on one side only fails, and so does a changed
table shape (header, plane, row count or row width). The baseline
directory is only read; scripts/check.sh --bench-rebaseline refreshes it.

Exit codes: 0 ok, 1 regressions/shape mismatches, 2 usage/IO errors.
"""

import json
import os
import sys

WALL_TOLERANCE = 0.15


def load_dir(path):
    """name -> parsed document, for every BENCH_*.json under path."""
    docs = {}
    if not os.path.isdir(path):
        return docs
    for entry in sorted(os.listdir(path)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            with open(os.path.join(path, entry), "rb") as f:
                docs[entry] = json.load(f)
    return docs


def as_number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def compare_file(name, base, cand, failures, counts):
    base_tables = {t.get("title", ""): t for t in base.get("tables", [])}
    cand_tables = {t.get("title", ""): t for t in cand.get("tables", [])}
    for title in sorted(cand_tables.keys() - base_tables.keys()):
        failures.append(f"{name}: table {title!r} has no baseline")
    for title, bt in base_tables.items():
        ct = cand_tables.get(title)
        where = f"{name}: table {title!r}"
        if ct is None:
            failures.append(f"{where} missing from candidate")
            continue
        changed = [field for field in ("header", "plane")
                   if bt.get(field) != ct.get(field)]
        if changed:
            failures.append(f"{where} {' and '.join(changed)} changed")
            continue
        brows, crows = bt.get("rows", []), ct.get("rows", [])
        if len(brows) != len(crows):
            failures.append(f"{where} row count {len(brows)} -> {len(crows)}")
            continue
        wall = bt.get("plane") == "wall"
        header = bt.get("header", [])
        for brow, crow in zip(brows, crows):
            label = brow[0] if brow else "?"
            if len(brow) != len(crow):
                failures.append(f"{where} row {label!r} width changed")
                continue
            for col, (b, c) in enumerate(zip(brow, crow)):
                col_name = header[col] if col < len(header) else str(col)
                key = f"{where} row {label!r} col {col_name!r}"
                bn, cn = as_number(b), as_number(c)
                if wall and col > 0 and bn is not None and cn is not None:
                    counts["wall"] += 1
                    if abs(cn - bn) > WALL_TOLERANCE * abs(bn):
                        failures.append(
                            f"{key}: {b} -> {c} (wall plane: more than "
                            f"{WALL_TOLERANCE:.0%} from the baseline)")
                    continue
                counts["exact"] += 1
                if b != c:
                    failures.append(f"{key}: {b!r} -> {c!r}")


def main():
    if len(sys.argv) != 3:
        print("usage: bench_compare.py <baseline_dir> <candidate_dir>",
              file=sys.stderr)
        return 2
    baseline_dir, candidate_dir = sys.argv[1], sys.argv[2]
    baselines = load_dir(baseline_dir)
    candidates = load_dir(candidate_dir)
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {baseline_dir} "
              f"(run scripts/check.sh --bench-rebaseline)", file=sys.stderr)
        return 2
    if not candidates:
        print(f"error: no BENCH_*.json results in {candidate_dir}",
              file=sys.stderr)
        return 2

    failures = []
    counts = {"exact": 0, "wall": 0}
    for name in sorted(candidates.keys() - baselines.keys()):
        failures.append(f"{name}: no committed baseline in {baseline_dir}")
    for name, base in baselines.items():
        cand = candidates.get(name)
        if cand is None:
            failures.append(f"{name}: result file missing from candidate run")
            continue
        compare_file(name, base, cand, failures, counts)

    if failures:
        print(f"bench regression gate: {len(failures)} failure(s):")
        for f in failures:
            print(f"  FAIL {f}")
        print("if intentional, refresh with scripts/check.sh "
              "--bench-rebaseline and commit bench/baselines/")
        return 1
    print(f"bench regression gate: {len(baselines)} result file(s) match: "
          f"{counts['exact']} cell(s) exact, {counts['wall']} wall-plane "
          f"cell(s) within {WALL_TOLERANCE:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
