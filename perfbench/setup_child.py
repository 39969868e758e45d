"""Set-up phase in a fresh interpreter: import t3table, generate, write.

    python3 perfbench/setup_child.py SRC_DIR SEED INSTANCES OUT_PATH

Prints one JSON line holding the wall time of the import, ``synth.generate``
and ``synth.write_dataset`` together, which is what ``t3table gen`` costs.
"""

import json
import sys
import time


def main() -> None:
    src, seed, instances, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from t3table import synth

    synth.write_dataset(synth.generate(synth.GeneratorConfig(seed=seed), instances), out)
    print(json.dumps({"seconds": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
