#!/usr/bin/env python3
"""Record the reference outputs the ledger checks runs against.

Usage, from the root of a checkout::

    python3 perfbench/record.py                 # every workload with references
    python3 perfbench/record.py eigen-event     # just one

Writes ``perfbench/reference/<workload>.json``.  Rerun only when a change
is meant to alter the physics; a reference that moves otherwise is a bug
the ledger exists to catch.
"""

from __future__ import annotations

import json
import sys

from run import HERE, _bootstrap

RECORDED = ("eigen-event", "eigen-history", "sweep-cold")


def main(argv: list[str]) -> int:
    _bootstrap()
    from ledger import eigen, sweep

    for name in argv or RECORDED:
        if name not in RECORDED:
            sys.exit(f"no references for {name!r}; choose from {RECORDED}")
        doc = sweep.record() if name == "sweep-cold" else eigen.record(name)
        path = HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
