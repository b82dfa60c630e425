"""fusiondet benchmark: closed-loop train, train_dense and robustness workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Each workload runs in one process and one thread (OMP_NUM_THREADS=1, set
before numpy is imported) and drives the public fusiondet API in a closed
loop: the next op starts when the previous one has finished. ``--trace 0``
measures the end-to-end metrics with no span wrappers installed.
``--trace 1`` prepares the workload twice, the second time with span wrappers
installed, and alternates units of the two for ``--seconds``: one untraced,
one traced. It checks that both produce the same digest and prints the
per-layer metrics and the tracing overhead.
``--workload all`` runs the three workloads one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
name every metric with its unit, the provenance of the run and the output
digest. The exit code is 0 when the outputs were correct, 1 when they were
not and 2 when the program's sources are missing. See perfbench/README.md.
"""

import os
import sys
import time

_T_START = time.perf_counter()
os.environ["OMP_NUM_THREADS"] = "1"  # the bench protocol; must precede numpy

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("train", "train_dense", "robustness")
MIN_OPS = 100  # so that at least 10 samples lie beyond p90
SETUP_REPS = 3
DEADLINE_S = 150.0  # process age after which a pass stops extending itself

END_TO_END_UNITS = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_per_s": "ops/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def _import_program():
    """Put the checkout's src/ first on sys.path and import the workloads."""
    if not os.path.isfile(os.path.join(SRC, "fusiondet", "__init__.py")):
        print(f"perfbench: no fusiondet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit():
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the program's sources, for checkouts without .git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fusiondet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(wl_mod, args, config_hash: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "config_hash": config_hash,
        "overrides": wl_mod.WORKLOADS[args.workload]["overrides"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def _p50_p90_ms(latencies: list) -> tuple:
    ms = [x * 1e3 for x in latencies]
    return statistics.median(ms), float(numpy.percentile(ms, 90))


def _print_metric(name, value, unit, note=""):
    print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))


def run_end_to_end(wl_mod, args, cfg, checks, import_s) -> tuple:
    prepare_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = wl_mod.make_workload(args.workload, cfg, checks)
        repeat_ok = wl.prepare()
        prepare_s.append(time.perf_counter() - t0)
    latencies, oks, wall = wl_mod.timed_pass(wl, args.seconds, args.min_ops,
                                             _T_START + DEADLINE_S)
    p50, p90 = _p50_p90_ms(latencies)
    attempted, failed = len(oks), oks.count(False)
    metrics = {
        "latency_ms.p50": p50,
        "latency_ms.p90": p90,
        "throughput_per_s": attempted / wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + statistics.median(prepare_s),
    }
    for name, value in metrics.items():
        _print_metric(name, value, END_TO_END_UNITS[name])
    _print_metric("error_rate", failed / attempted, "ratio", f"base attempted={attempted}")
    _print_metric("latency_ms.samples", attempted, "count")
    print(f"setup import_s={import_s!r} prepare_s={prepare_s!r}")
    print(f"digest {args.workload} sha256:{wl.digest}")
    if not repeat_ok:
        print("check failed: the repeated set-up decode differs or failed its checks")
    correct = repeat_ok and failed == 0
    return correct, attempted, failed, {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()
    }


def run_traced(wl_mod, args, cfg, checks) -> tuple:
    plain = wl_mod.make_workload(args.workload, cfg, checks)
    repeat_ok = plain.prepare()
    with Tracer() as tracer:
        wl_mod.install_spans(tracer)
        wl = wl_mod.make_workload(args.workload, cfg, checks)
        repeat_ok = wl.prepare() and repeat_ok
        lat_plain, oks_plain, lat_traced, oks_traced = wl_mod.paired_pass(
            plain, wl, tracer, args.seconds, _T_START + DEADLINE_S)
    digest_plain = plain.digest
    n = len(lat_traced)
    values, extra, (busy, self_s, calls) = wl_mod.per_layer_metrics(tracer, n, wl.window)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write(spans_path)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    print(f"times are per op over {n} traced ops; counts are totals over the first "
          f"{wl.window} ops")
    for name in sorted(busy):
        print(f"span {name} calls/op={calls[name] / n!r} ms/op={busy[name] * 1e3 / n!r} "
              f"self_ms/op={self_s[name] * 1e3 / n!r}")
    notes = {
        "tensor.bilinear_sample.oob_ratio":
            f"base tensor.bilinear_sample.reads={values['tensor.bilinear_sample.reads'][0]}",
        "geometry.nms_3d.keep_ratio":
            f"base geometry.nms_3d.boxes_in={values['geometry.nms_3d.boxes_in'][0]}",
        "tensor.bilinear_sample.bytes_computed": "computed from shapes",
        "scenesim.generate_scene.ms": "per set-up, not per op",
    }
    for name, (value, unit) in {**values, **extra}.items():
        _print_metric(name, value, unit, notes.get(name, ""))
    p50_plain, _ = _p50_p90_ms(lat_plain)
    p50_traced, _ = _p50_p90_ms(lat_traced)
    paired = statistics.median(t - p for t, p in zip(lat_traced, lat_plain)) * 1e3
    _print_metric("trace_overhead_ms.p50", p50_traced - p50_plain, "ms",
                  f"traced {p50_traced!r} - untraced {p50_plain!r}; "
                  f"median of per-op differences {paired!r}")
    print(f"digest {args.workload} untraced sha256:{digest_plain}")
    print(f"digest {args.workload} traced   sha256:{wl.digest}")

    oks = oks_plain + oks_traced
    attempted, failed = len(oks), oks.count(False)
    if digest_plain != wl.digest:
        print("check failed: the traced digest differs from the untraced digest")
    if not repeat_ok:
        print("check failed: the repeated set-up decode differs or failed its checks")
    correct = repeat_ok and failed == 0 and digest_plain == wl.digest
    return correct, attempted, failed, {
        k: {"value": v, "unit": unit} for k, (v, unit) in values.items()
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    rc = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--min-ops", str(args.min_ops)],
            check=False,
        )
        rc = rc or proc.returncode
    return rc


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-ops", type=int, default=MIN_OPS,
                   help="with --trace 0, measure until at least this many ops are done "
                        "(default %(default)s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl_mod = _import_program()
    import_s = time.perf_counter() - _T_START
    cfg, config_hash = wl_mod.build_config(args.workload, args.seed)
    checks = wl_mod.OutputChecks(cfg.model.num_queries)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds!r} "
          f"trace {args.trace}")
    print("provenance " + json.dumps(provenance(wl_mod, args, config_hash), sort_keys=True))
    if args.trace:
        result = run_traced(wl_mod, args, cfg, checks)
    else:
        result = run_end_to_end(wl_mod, args, cfg, checks, import_s)
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
