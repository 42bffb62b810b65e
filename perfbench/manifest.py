"""Write BENCHMARK.json at the repository root from spec.py.

    python3 perfbench/manifest.py          # write
    python3 perfbench/manifest.py --check  # exit 1 if the file differs
"""

import json
import os
import sys

import spec

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def manifest() -> dict:
    return {
        "command": spec.COMMAND,
        "paths": spec.PATHS,
        "run_seconds": spec.RUN_SECONDS,
        "workloads": spec.WORKLOADS,
        "end_to_end": spec.END_TO_END,
        "per_layer": spec.PER_LAYER,
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        with open(PATH) as handle:
            sys.exit(0 if handle.read() == render() else 1)
    with open(PATH, "w") as handle:
        handle.write(render())
