"""Set-up time of one workload, as a command-line user pays it.

Run in a fresh process: times from before ``import dasim`` until both
schemes' plans are built (generation, allocation, address resolution
and packing), then prints one JSON line with the time and whether the
plans' op counts match their closed forms.

    python3 bench/setup_probe.py '<scenario as JSON>'
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import scenarios  # noqa: E402  (imports dasim)

scn = scenarios.Scenario.from_json(json.loads(sys.argv[1]))
plans = [scenarios.build_plan(scn, s) for s in scenarios.SCHEMES]
setup_s = perf_counter() - t0
print(json.dumps({"setup_s": setup_s,
                  "ops_ok": all(p.counted_ops == p.expected_ops for p in plans)}))
