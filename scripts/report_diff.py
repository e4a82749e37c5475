#!/usr/bin/env python3
"""Compare two directories of report JSON field by field, timing aside.

Each ``*.json`` file of OLD is paired with the file of the same name in NEW
(such as the ``mixlab corpus`` output of two checkouts).  Every ``runtime``
field is left out.  Numbers are compared by relative deviation
|a - b| / max(|a|, |b|); every other value (a verdict, a string, a flag,
null) must be equal, and both sides must have the same structure: the same
files, the same keys and the same list lengths.

One line per report gives its largest relative deviation and the field where
it occurs; a line per other difference follows it.  The exit status is 1
when any non-numeric difference was found, else 0:

    python scripts/report_diff.py old_reports/ new_reports/
"""

import argparse
import json
import math
import numbers
import sys
from pathlib import Path

SKIPPED = "runtime"


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def compare(old, new, path: str = "") -> tuple[float, str, list[str]]:
    """(largest relative deviation, its field path, non-numeric differences) between two JSON values."""
    worst, where, diffs = 0.0, "", []

    def visit(a, b, at: str) -> None:
        nonlocal worst, where
        if _is_number(a) and _is_number(b) and math.isfinite(a) and math.isfinite(b):
            scale = max(abs(a), abs(b))
            dev = abs(a - b) / scale if scale > 0 else 0.0
            if dev > worst:
                worst, where = dev, at
        elif _is_number(a) and _is_number(b):
            if not (a == b or (math.isnan(a) and math.isnan(b))):
                diffs.append(f"{at}: {a!r} in old, {b!r} in new")
        elif isinstance(a, dict) and isinstance(b, dict):
            for key in sorted((a.keys() | b.keys()) - {SKIPPED}):
                if key not in a or key not in b:
                    diffs.append(f"{at}.{key}: only in {'new' if key not in a else 'old'}")
                else:
                    visit(a[key], b[key], f"{at}.{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                diffs.append(f"{at}: {len(a)} items in old, {len(b)} in new")
            for i, (x, y) in enumerate(zip(a, b)):
                visit(x, y, f"{at}[{i}]")
        elif type(a) is not type(b) or a != b:
            diffs.append(f"{at}: {a!r} in old, {b!r} in new")

    visit(old, new, path)
    return worst, where, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, metavar="OLD", help="directory of report JSON")
    parser.add_argument("new", type=Path, metavar="NEW", help="directory of report JSON to compare with OLD")
    args = parser.parse_args(argv)
    old_names = {p.name for p in args.old.glob("*.json")}
    new_names = {p.name for p in args.new.glob("*.json")}
    failed = False
    for name in sorted(old_names | new_names):
        if name not in old_names or name not in new_names:
            print(f"{name}: only in {'new' if name not in old_names else 'old'}")
            failed = True
            continue
        old = json.loads((args.old / name).read_text())
        new = json.loads((args.new / name).read_text())
        worst, where, diffs = compare(old, new)
        print(f"{worst:.3e}  {name}  {where or '-'}")
        for diff in diffs:
            print(f"  differs {diff}")
        failed |= bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
