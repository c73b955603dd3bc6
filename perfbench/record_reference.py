"""Record the reference outputs the benchmark checks against.

Runs every workload once at the fixed reference seed and writes
``reference.json`` next to this file.  Run it only when a change to the
package is meant to change these outputs, and say so with the change::

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys
from pathlib import Path

import run

run.import_package()
sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from workloads import REFERENCE_FILE, WORKLOADS, Tally  # noqa: E402

workloads._load_reference = lambda name: None  # record, do not compare
reference = {}
work = run.OUT / "record-reference"
work.mkdir(parents=True, exist_ok=True)
try:
    for name, cls in WORKLOADS.items():
        tally = Tally()
        values = cls(0, work).reference(tally)
        real = [p for p in tally.problems if not p.startswith("no recorded reference")]
        if real:
            raise SystemExit(f"{name}: {real}")
        if values:
            reference[name] = values
finally:
    shutil.rmtree(work, ignore_errors=True)
REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
print(f"wrote {REFERENCE_FILE}")
