#!/usr/bin/env python3
"""Bench regression gate: compare BENCH_*.json results against baselines.

Usage: bench_compare.py <baseline_dir> <candidate_dir> [--threshold 0.15]

Each BENCH_<name>.json is {"bench": name, "tables": [{title, header,
rows}, ...]} (bench/bench_output.hpp). The tables are paper-shaped
simulation results, deterministic for the fixed seeds baked into each
bench, so against up-to-date baselines every cell matches exactly.

The gate compares numeric cells by relative drift (symmetric, so both
directions of surprise fail) and every non-numeric cell — digests,
yes/no verdicts, percentages such as "93.5%" — exactly. On failure it
prints, besides the failing cells, a per-metric drift report covering
EVERY compared key — percentage and direction — so one glance separates a
systematic shift from a targeted regression; --report prints the same
drift report on success too (CI runs it, so the uploaded log always
shows how close every metric sat to the gate). When a bench attached a
profile (BENCH_<name>.profile.jsonl, bench/bench_output.hpp) and both
the baseline and candidate dirs carry one, a failure additionally prints
the top regressed frames — per-frame self-share in percentage points,
candidate minus baseline — pointing at the code region that absorbed the
wall-clock regression. Profiles never gate anything themselves (they are
wall-plane samples, not deterministic cells). A result file
missing from the candidate set, a table missing from the baseline, or a
changed table shape fails with a pointer at --bench-rebaseline. A
candidate file with no baseline is AUTO-SEEDED: the candidate is copied
into the baseline dir verbatim (loudly — the warning tells you to review
and commit it) so a brand-new bench doesn't fail the gate before its
first baseline lands. Under --strict a missing baseline FAILS instead:
CI runs strict so an uncommitted baseline can never slip through as a
silent auto-seed on a throwaway runner.

Exit codes: 0 ok, 1 regressions/shape mismatches, 2 usage/IO errors.
"""

import argparse
import json
import os
import shutil
import sys


def load_dir(path):
    """name -> parsed document, for every BENCH_*.json under path."""
    docs = {}
    if not os.path.isdir(path):
        return docs
    for entry in sorted(os.listdir(path)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        with open(os.path.join(path, entry), "rb") as f:
            docs[entry] = json.load(f)
    return docs


def load_profiles(path):
    """name -> {frame: self_count}, for BENCH_*.profile.jsonl under path.

    Mirrors the self-time fold of vdap-report --profile: each sampled
    stack's count is attributed to its innermost frame. The meta line
    (the first object, carrying interval_us) is skipped; unparseable
    files are skipped too — profiles are diagnostic, never load-bearing.
    """
    profiles = {}
    if not os.path.isdir(path):
        return profiles
    for entry in sorted(os.listdir(path)):
        if not (entry.startswith("BENCH_") and
                entry.endswith(".profile.jsonl")):
            continue
        frames = {}
        try:
            with open(os.path.join(path, entry), "rb") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    row = json.loads(line)
                    stack = row.get("stack")
                    if not stack:
                        continue  # meta line, or malformed
                    leaf = stack.split(";")[-1]
                    frames[leaf] = frames.get(leaf, 0) + int(row["count"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
        if frames:
            profiles[entry] = frames
    return profiles


def print_profile_diffs(baseline_dir, candidate_dir, top_n=10):
    """On gate failure: name the frames that absorbed the regression."""
    base_profs = load_profiles(baseline_dir)
    cand_profs = load_profiles(candidate_dir)
    for name in sorted(base_profs.keys() & cand_profs.keys()):
        base, cand = base_profs[name], cand_profs[name]
        base_total = sum(base.values())
        cand_total = sum(cand.values())
        if base_total == 0 or cand_total == 0:
            continue
        deltas = []
        for frame in base.keys() | cand.keys():
            bp = 100.0 * base.get(frame, 0) / base_total
            cp = 100.0 * cand.get(frame, 0) / cand_total
            deltas.append((cp - bp, frame, bp, cp))
        deltas.sort(key=lambda d: (-d[0], d[1]))
        print(f"top regressed frames, {name} (self-share percentage "
              f"points, candidate vs baseline — frames that absorbed "
              f"time come first):")
        for delta, frame, bp, cp in deltas[:top_n]:
            print(f"  {delta:+7.2f}pp  {frame}: {bp:.2f}% -> {cp:.2f}%")


def as_number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def drift(base, cand):
    """Symmetric relative drift in [0, 1]."""
    denom = max(abs(base), abs(cand))
    if denom < 1e-12:
        return 0.0
    return abs(cand - base) / denom


def compare_tables(name, base, cand, threshold, failures, comparisons):
    base_tables = {t.get("title", ""): t for t in base.get("tables", [])}
    cand_tables = {t.get("title", ""): t for t in cand.get("tables", [])}
    for title, bt in base_tables.items():
        ct = cand_tables.get(title)
        where = f"{name}: table {title!r}"
        if ct is None:
            failures.append(f"{where} missing from candidate")
            continue
        if bt.get("header") != ct.get("header"):
            failures.append(f"{where} header changed")
            continue
        brows, crows = bt.get("rows", []), ct.get("rows", [])
        if len(brows) != len(crows):
            failures.append(
                f"{where} row count {len(brows)} -> {len(crows)}")
            continue
        for brow, crow in zip(brows, crows):
            label = brow[0] if brow else "?"
            if len(brow) != len(crow):
                failures.append(f"{where} row {label!r} width changed")
                continue
            for col, (b, c) in enumerate(zip(brow, crow)):
                header = bt.get("header", [])
                col_name = header[col] if col < len(header) else str(col)
                key = f"{name}: {title!r} row {label!r} col {col_name!r}"
                bn, cn = as_number(b), as_number(c)
                if bn is None or cn is None:
                    if b != c:
                        failures.append(f"{key}: {b!r} -> {c!r} "
                                        f"(text cell changed)")
                    continue
                d = drift(bn, cn)
                comparisons.append((key, b, c, d, cn - bn))
                if d > threshold:
                    failures.append(f"{key}: {b} -> {c} ({d:.1%} drift)")
    for title in cand_tables:
        if title not in base_tables:
            print(f"note: {name}: new table {title!r} (no baseline)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline_dir")
    ap.add_argument("candidate_dir")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max relative drift per numeric cell (default 0.15)")
    ap.add_argument("--strict", action="store_true",
                    help="fail on a candidate with no baseline instead of "
                         "auto-seeding it (CI mode: baselines must be "
                         "committed, never invented on the runner)")
    ap.add_argument("--report", action="store_true",
                    help="print the per-metric drift report even when the "
                         "gate passes (CI mode: the log shows how close "
                         "every metric sat to the threshold)")
    args = ap.parse_args()

    baselines = load_dir(args.baseline_dir)
    candidates = load_dir(args.candidate_dir)
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {args.baseline_dir} "
              f"(run scripts/check.sh --bench-rebaseline)", file=sys.stderr)
        return 2
    if not candidates:
        print(f"error: no BENCH_*.json results in {args.candidate_dir}",
              file=sys.stderr)
        return 2

    failures = []
    comparisons = []
    for name, base in baselines.items():
        cand = candidates.get(name)
        if cand is None:
            failures.append(f"{name}: result file missing from candidate run")
            continue
        compare_tables(name, base, cand, args.threshold, failures, comparisons)
    for name in candidates:
        if name not in baselines:
            if args.strict:
                failures.append(
                    f"{name}: no committed baseline (--strict forbids "
                    f"auto-seeding; run the bench locally and commit "
                    f"bench/baselines/{name})")
                continue
            # A brand-new bench: seed its baseline from this run instead of
            # failing. Copy bytes verbatim so the baseline is exactly what
            # the (deterministic) bench wrote.
            seeded = os.path.join(args.baseline_dir, name)
            shutil.copyfile(os.path.join(args.candidate_dir, name), seeded)
            print("!" * 72, file=sys.stderr)
            print(f"WARNING: {name}: no baseline found — AUTO-SEEDED it from "
                  f"this run into {seeded}.\n"
                  f"Review the numbers and COMMIT that file; future runs are "
                  f"gated against it.", file=sys.stderr)
            print("!" * 72, file=sys.stderr)

    # Full drift report: every compared key, with percentage and
    # direction, so one glance separates a systematic shift (everything
    # moved) from a targeted regression (one metric spiked). Printed on
    # every failure, and on success too under --report.
    def drift_report():
        print(f"per-metric drift, all {len(comparisons)} compared key(s) "
              f"('+' candidate above baseline, '-' below):")
        for key, b, c, d, delta in comparisons:
            direction = "+" if delta > 0 else ("-" if delta < 0 else "=")
            marker = " FAIL" if d > args.threshold else ""
            print(f"  {direction} {d:7.2%}  {key}: {b} -> {c}{marker}")

    if failures:
        print(f"bench regression gate: {len(failures)} failure(s) at "
              f">{args.threshold:.0%} drift:")
        for f in failures:
            print(f"  FAIL {f}")
        drift_report()
        # Where attached profiles exist on both sides, name the frames
        # that absorbed the regression (DESIGN.md §6j).
        print_profile_diffs(args.baseline_dir, args.candidate_dir)
        print("if intentional, refresh with scripts/check.sh "
              "--bench-rebaseline and commit bench/baselines/")
        return 1
    print(f"bench regression gate: {len(baselines)} result file(s) within "
          f"{args.threshold:.0%} of baseline")
    if args.report:
        drift_report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
