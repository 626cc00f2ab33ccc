"""Regenerate reference.json: the checked values of one untraced pass at the
default seed, stored so that later runs at that seed compare against them.

Run only when the program's numbers are meant to change:

    python3 perfbench/make_reference.py
"""

import json
import tempfile
from pathlib import Path

import bootstrap
import run

bootstrap.load_package()

import workloads  # noqa: E402  (after the thread caps and the import pin)

reference = {}
for name in workloads.WORKLOADS:
    wl = workloads.build(name, workloads.DEFAULT_SEED)
    with tempfile.TemporaryDirectory(dir=bootstrap.ROOT) as out:
        for result in run.run_pass(wl, Path(out), {})["results"]:
            if result["problems"]:
                raise SystemExit(f"{name}/{result['op']}: {result['problems']}")
            reference[result["op"]] = result["values"]
(run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
