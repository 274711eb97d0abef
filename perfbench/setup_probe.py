"""One cold start of a workload: a fresh interpreter imports the engine,
parses and builds the workload's models and generates its op list, then
exits.  The reference sampler runs throughout, and the probe prints its
samples as one JSON list, so that run.py can put the start's wall time in
the speed the machine ran at.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <out_dir>
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402

if __name__ == "__main__":
    # a start lasts a few tenths of a second: sample often enough to get
    # tens of samples
    with reference.Sampler(interval=0.004) as sampler:
        import workloads

        workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    if sampler.bad:
        sys.exit(f"error: {sampler.bad} reference samples computed a wrong value")
    print(json.dumps(sampler.seconds))
