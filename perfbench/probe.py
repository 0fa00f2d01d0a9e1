"""Answer one operation of a workload from a fresh interpreter:
`python3 perfbench/probe.py <workload> <spec JSON>`.  run.py times this
process to measure set-up (interpreter start, `import hexablock`, the
first operation)."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hexablock  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    wl = WORKLOADS[sys.argv[1]]
    wl.run(hexablock, wl.prepare(hexablock, json.loads(sys.argv[2])))
