"""The benchmark's output digests and the CLI's artifacts, pinned: a change
that claims to leave every output unchanged must reproduce them.

Each workload runs at seed 1, untraced, for its count window only. The
train digests hash the window's loss records and the parameters after it;
the robustness digest hashes the final box states of every decode and the
mAP and NDS of each fusion and scenario.

The CLI pins hash every file a short run of each command writes, and the
gradient-suite pin holds the worst finite-difference error of each op family
digit for digit. Like the benchmark digests they move with every intended
output change, and all assume the BLAS they were recorded under (OpenBLAS on
x86-64).
"""

import hashlib
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


CLI_DIGESTS = {
    "double": "8e3b5201b5b879af24514c14e7022eb4fad6bb5a53592ede4a0bb30d0f097941",
    "single": "36bcb5b04dfc744ecf9f07f244bf8a1a3f46ac8b23f2bc570c9205f9519ff489",
}


def _tree_digest(root: str) -> str:
    """sha256 over every file under ``root``: relative path, size and bytes,
    in path order."""
    h = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, files in os.walk(root) for f in files)
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode("utf-8") + data)
    return h.hexdigest()


@pytest.mark.parametrize("precision", sorted(CLI_DIGESTS))
def test_cli_artifacts_are_unchanged(tmp_path, precision):
    env = {**os.environ, "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.path.join(ROOT, "src")}
    common = ["--config", os.path.join(ROOT, "configs", "desk.json"),
              "-O", "sim.num_scenes=3", "-O", "train.steps=6",
              "-O", f"model.precision={precision}"]
    out = tmp_path / "out"
    ds, ckpt = str(out / "ds"), str(out / "model.fdcp")
    decoding = [*common, "--dataset", ds, "--checkpoint", ckpt]
    runs = [
        ["generate", *common, "--out", ds],
        ["generate", *common, "--out", ds, "--force"],  # replaces the dataset whole
        ["train", *common, "--dataset", ds, "--out", ckpt],
        ["infer", *decoding, "--out", str(out / "preds.json")],
        ["eval", *decoding, "--out", str(out / "eval_uaf.json")],
        ["eval", *decoding, "--fusion", "equal", "--out", str(out / "eval_equal.json")],
        ["eval", *decoding, "--oracle-uncertainty", "--out", str(out / "eval_oracle.json")],
        ["robustness", *decoding, "--oracle-uncertainty", "--out", str(out / "rob")],
    ]
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "fusiondet.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, (argv[0], proc.stderr[-2000:])
    assert _tree_digest(str(out)) == CLI_DIGESTS[precision]


# gradsuite.run_suite(3): each op family's worst relative error, as repr
GRADSUITE_WORST = {
    "bilinear_sample": "3.787324343029752e-10",
    "bilinear_sample_packed": "5.662937896389053e-10",
    "layer_norm": "1.4308456849909668e-09",
    "softmax": "6.661338147750939e-10",
    "adaptive_mix": "3.6104279974204254e-08",
    "sample_lidar": "9.32948533246101e-10",
    "sample_camera": "1.042588015920387e-09",
    "predict_uncertainty": "1.7806747049098348e-10",
    "fuse": "1.993872900118987e-09",
    "refine_box": "2.009052839022085e-09",
    "compute_loss": "2.462896830923711e-10",
}


def test_gradient_suite_worst_errors_are_unchanged():
    from fusiondet import gradsuite

    results = gradsuite.run_suite(3)
    assert {name: repr(r["max_rel_error"]) for name, r in results.items()} == GRADSUITE_WORST
