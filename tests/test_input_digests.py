"""The benchmark's seed-independent inputs must not change.

``perfbench/input_digests.json`` pins a digest of the inputs of each
workload that do not depend on the seed, such as the words element pool
written by ``element_to_text``.  A change that alters those texts, for
instance a certificate that is no longer canonical, would make every
benchmark run fail its set-up check; this test catches it first.  It only
reads ``perfbench/``.
"""

import importlib.util
import json
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up while the class body runs
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_seed_independent_inputs_match_pinned_digests():
    workloads = _load_workloads().WORKLOADS
    pinned = json.loads((PERFBENCH / "input_digests.json").read_text())
    assert sorted(pinned) == sorted(workloads)
    got = {name: cls().setup(7).fixed for name, cls in workloads.items()}
    assert got == pinned
