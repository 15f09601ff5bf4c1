#!/usr/bin/env python3
"""Compare the host-independent counts of two BENCH_<mode>.json files.

    python3 bench/check.py OLD NEW

Rows are matched by their table's key columns.  Exits 1 if a count column
differs, or if a row (or a whole table) is in one file only.  Timings, MB
and pass flags are never compared, and a top-level "parent" document is
ignored.
"""
import json
import sys


def keyed(doc):
    """{(table, key values): (counts, row)} over every table of doc."""
    rows = {}
    for name, table in doc["tables"].items():
        for row in table["rows"]:
            key = (name,) + tuple(row[k] for k in table["keys"])
            rows[key] = (table["counts"], row)
    return rows


def main(old_path, new_path):
    with open(old_path) as f:
        old = keyed(json.load(f))
    with open(new_path) as f:
        new = keyed(json.load(f))
    problems = []
    for key in sorted(set(old) | set(new), key=repr):
        if key not in new:
            problems.append(f"{key}: missing")
        elif key not in old:
            problems.append(f"{key}: added")
        else:
            (counts, a), (new_counts, b) = old[key], new[key]
            for c in sorted(set(counts) | set(new_counts)):
                if a.get(c) != b.get(c):
                    problems.append(f"{key} {c}: {a.get(c)} -> {b.get(c)}")
    for p in problems:
        print(p)
    print(f"{new_path}: {len(new)} rows against {old_path}, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
