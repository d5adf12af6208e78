"""Set-up cost of one drekge process: import the package and load one
graph. Prints the elapsed seconds as JSON.

Usage: python3 probe.py SRC_DIR TRAIN VALID TEST
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import drekge

    graph = drekge.data.load_graph(*sys.argv[2:5])
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "entities": graph.n_entities}))
