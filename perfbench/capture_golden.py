#!/usr/bin/env python3
"""Record the golden topology outputs and the pinned input digests.

Runs each entry of the topology catalog once and writes the outputs
(vertex counts, f-vectors, Betti numbers, uplink vanishing) to
``perfbench/golden_topology.json``.  Then writes, for every workload, the
digest of the inputs that do not depend on the seed (the topology
catalogue with its case-i vertices, the words element pool, the symmetry
subgroups) to ``perfbench/input_digests.json``.  Run it only on a commit
whose results are trusted; the benchmark then checks every topology
request against the first file and every set-up against the second.

Usage: python3 perfbench/capture_golden.py [--digests-only]
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Session, Topology  # noqa: E402


def main() -> None:
    if "--digests-only" not in sys.argv[1:]:
        wl = Topology()
        golden = {}
        for req in wl.catalog():
            golden[req["key"]] = wl.execute(req, Session())
            print(req["key"], golden[req["key"]], flush=True)
        path = HERE / "golden_topology.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(golden)} entries to {path}")
    digests = {name: cls().setup(0).fixed for name, cls in WORKLOADS.items()}
    path = HERE / "input_digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
