#!/usr/bin/env python3
"""Record the pinned outputs of every benchmark item into perfbench/reference.json.

    python3 perfbench/record_reference.py

Run it from the root of the source tree whose outputs are to be the
reference.  The seed only orders the items, so one pass of each workload
covers every item.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.pin_threads()
    run.use_source_tree()
    import tracer  # imported here: numpy must load after the thread pinning
    import workloads

    reference = {}
    for name in run.WORKLOADS:
        if name == "shear_corpus":
            corpus = workloads.CorpusWorkload(name, 0, run.OUT_DIR / "reference-corpus")
            try:
                outputs = corpus.run_pass(tracer.Tracer())
            finally:
                corpus.close()
        else:
            outputs = {item.id: item.pin(item.call()) for item in workloads.all_items(name)}
        bad = [k for k, v in outputs.items() if isinstance(v, Exception)]
        if bad:
            sys.exit(f"record_reference: {name} items failed: {bad}")
        reference[name] = dict(sorted(outputs.items()))
        print(f"{name}: {len(outputs)} items")
    doc = {"commit": run.git_commit(), "tolerance": workloads.TOLERANCE, **reference}
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
