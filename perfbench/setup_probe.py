"""Time one cold set-up of a workload in this fresh process.

    python3 perfbench/setup_probe.py WORKLOAD

Imports chevcalc from the checkout's `src/` and builds what the workload
uses; prints {"setup_s": seconds, "before_s": .., "after_s": ..} as
JSON, the last two being readings of the host's speed (gauge.py) taken
just before and just after.
"""

import json
import sys
import time
from pathlib import Path

import gauge


def main(name):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    before = gauge.reading()
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].setup()
    setup_s = time.perf_counter() - start
    after = gauge.reading()
    print(json.dumps({"setup_s": setup_s, "before_s": before, "after_s": after}))


if __name__ == "__main__":
    main(sys.argv[1])
