#!/usr/bin/env python3
"""Fails when a figure's table no longer shows the paper's result.

Parses the `== Fig N: ... ==` tables that bench/benchlib.h's PrintFigure
writes to a figure binary's stdout, from every *.txt file in a directory
(default build/bench-out/, where tier-1 keeps them), and checks the
qualitative result EXPERIMENTS.md's "Paper" bullet states for each figure:

  Fig 4   LITE write latency is flat (within 1%) as MRs are added, and Verbs
          at 1000 MRs is at least 1.5x Verbs at 100 (the MPT cliff).
  Fig 5   Both Verbs columns at 16 MB fall below half their 4 MB value (the
          MTT cliff), both LITE columns are flat within 1%, and LITE beats
          Verbs at 16 MB and above.
  Fig 6   At every size Verbs <= LITE-KL <= LITE < TCP/IP, and the ring
          column <= LITE.
  Fig 12  Utilization never decreases as receive queues are added, and LITE
          is the highest in both columns.

A missing table fails too. Exits 1 naming every claim that does not hold.

Usage: python3 scripts/check_claims.py [dir]
"""

import pathlib
import re
import sys

TITLE = re.compile(r"^== (Fig \d+):.*==$")


def parse_tables(directory):
    """Returns {"Fig N": {"columns": [...], "rows": [(x, [values])]}}."""
    tables = {}
    for path in sorted(pathlib.Path(directory).glob("*.txt")):
        lines = path.read_text().splitlines()
        i = 0
        while i < len(lines):
            match = TITLE.match(lines[i])
            i += 1
            if match is None:
                continue
            while i < len(lines) and lines[i].startswith("#"):
                i += 1  # The y-axis line.
            if i >= len(lines):
                break
            columns = lines[i].split()[1:]
            i += 1
            rows = []
            while i < len(lines) and lines[i].strip() and not lines[i].startswith(("#", "==")):
                cells = lines[i].split()
                values = [None if c == "-" else float(c) for c in cells[1:]]
                rows.append((cells[0], values))
                i += 1
            tables[match.group(1)] = {"columns": columns, "rows": rows}
    return tables


def column(table, name):
    index = table["columns"].index(name)
    return {x: values[index] for x, values in table["rows"]}


def flat(values, tolerance=0.01):
    return max(values) <= min(values) * (1 + tolerance)


def megabytes(label):
    return int(label[:-2]) if label.endswith("MB") else 0


def check_fig4(t):
    lite = column(t, "LITE_write_us")
    verbs = column(t, "Verbs_write_us")
    if not flat(list(lite.values())):
        yield f"LITE latency is not flat within 1%: {sorted(lite.values())}"
    if verbs["1000"] < 1.5 * verbs["100"]:
        yield f"Verbs at 1000 MRs ({verbs['1000']}) is below 1.5x Verbs at 100 ({verbs['100']})"


def check_fig5(t):
    for size in ("64B", "1K"):
        lite = column(t, f"LITE_write-{size}")
        verbs = column(t, f"Verbs_write-{size}")
        if verbs["16MB"] >= verbs["4MB"] / 2:
            yield f"Verbs {size} at 16MB ({verbs['16MB']}) is not below half of 4MB ({verbs['4MB']})"
        if not flat(list(lite.values())):
            yield f"LITE {size} throughput is not flat within 1%: {sorted(lite.values())}"
        for x in lite:
            if megabytes(x) >= 16 and lite[x] <= verbs[x]:
                yield f"LITE {size} ({lite[x]}) does not beat Verbs ({verbs[x]}) at {x}"


def check_fig6(t):
    for x, _ in t["rows"]:
        v = {name: column(t, name)[x] for name in t["columns"]}
        if not v["Verbs_write"] <= v["LITE_write_KL"] <= v["LITE_write"] < v["TCP/IP"]:
            yield f"at {x}: not Verbs <= LITE-KL <= LITE < TCP/IP: {v}"
        if v["LITE_write_ring"] > v["LITE_write"]:
            yield f"at {x}: ring ({v['LITE_write_ring']}) above LITE ({v['LITE_write']})"


def check_fig12(t):
    for name in t["columns"]:
        util = column(t, name)
        rqs = [util[x] for x, _ in t["rows"] if x.endswith("RQ")]
        if any(later < earlier for earlier, later in zip(rqs, rqs[1:])):
            yield f"{name} decreases as RQs are added: {rqs}"
        if any(util[x] >= util["LITE"] for x in util if x != "LITE"):
            yield f"LITE ({util['LITE']}) is not the highest {name}: {util}"


CHECKS = {"Fig 4": check_fig4, "Fig 5": check_fig5, "Fig 6": check_fig6, "Fig 12": check_fig12}


def main():
    directory = sys.argv[1] if len(sys.argv) > 1 else "build/bench-out"
    tables = parse_tables(directory)
    failures = []
    for fig, check in CHECKS.items():
        if fig not in tables:
            failures.append(f"{fig}: no table in {directory}")
            continue
        try:
            failures.extend(f"{fig}: {problem}" for problem in check(tables[fig]))
        except (KeyError, ValueError) as e:
            failures.append(f"{fig}: table lacks an expected row or column ({e})")
    for failure in failures:
        print(f"check_claims: {failure}")
    if failures:
        sys.exit(1)
    print(f"check_claims: the paper's claims hold for {', '.join(CHECKS)}")


if __name__ == "__main__":
    main()
