#!/usr/bin/env python3
"""Print the sha256 digest of each scenario's report JSON, timing aside.

Every scenario file in each DIR, in name order, is run through
``harness.run``; its report JSON, rendered by ``harness.json_text`` with the
``runtime`` field set to 0, is hashed.  A last line digests all of them in
order.  Two checkouts whose reports differ only in timing print the same
lines, so comparing them is one command per checkout:

    PYTHONPATH=<checkout>/src python scripts/report_digest.py scenarios/corpus scenarios/extra
"""

import argparse
import hashlib
import sys
from pathlib import Path

from mixlab.harness import Scenario, json_text, run


def report_digest(path: Path) -> str:
    """sha256 of the scenario's report JSON with ``runtime`` set to 0."""
    payload = run(Scenario.from_file(path)).to_json()
    payload["runtime"] = 0.0
    return hashlib.sha256(json_text(payload).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="+", metavar="DIR", help="directory of scenario JSON files")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for directory in args.dirs:
        for path in sorted(Path(directory).glob("*.json")):
            digest = report_digest(path)
            total.update(digest.encode())
            print(f"{digest}  {path}")
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
