"""The benchmark's output digests, pinned: a change that claims to leave
every output unchanged must reproduce them.

Each workload runs at seed 1, untraced, for its count window only. The
train digests hash the window's loss records and the parameters after it;
the robustness digest hashes the final box states of every decode and the
mAP and NDS of each fusion and scenario.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIGESTS = {
    "train": "1ba912e8410983bbb4461c2b65a93fb37a774a31a9048f92d6943f12cc7a0399",
    "train_dense": "26b688d4891a76fab7a1b49f692f2ac1956a09a0fd0568471e6ac161aad5eb9e",
    "robustness": "b1792236b6ae12f2ae20c9647d7adb7d0efa0a2d534b54f6d0c35379d89006e0",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_perfbench_digest_is_unchanged(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--min-ops", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    digests = [line.split() for line in proc.stdout.splitlines() if line.startswith("digest ")]
    assert digests == [["digest", workload, f"sha256:{DIGESTS[workload]}"]]
