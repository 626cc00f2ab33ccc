"""Set-up probe: start an interpreter, import wavecrit, build a workload's
inputs and say "ready".  ``run.py`` times this from process launch to the
"ready" line; that interval is the ``setup_s`` a CLI user pays per call.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import bootstrap

bootstrap.load_package()

import workloads  # noqa: E402  (after the thread caps and the import pin)

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
