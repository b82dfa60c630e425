"""Command-line entry point: dataset generation, toy training, inference,
evaluation, the robustness suite, gradient checks and kernel benchmarks.

Every command is driven by one JSON config (strictly validated before any
filesystem access) and is deterministic under a fixed config + seed. Exit
codes: 0 success, 2 config error, 1 any other failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys

import numpy as np

from . import __version__
from .bench import KERNELS, BenchError, bench_kernel, machine_info
from .config import ConfigError, RunConfig, ScenarioSection
from .fileio import atomic_open, write_json
from .geometry import GeometryError
from .gradsuite import run_suite
from .metrics import evaluate_detections, write_bins_csv, write_report_json
from .params import (
    CheckpointError,
    init_model_params,
    load_checkpoint,
    restore_into,
    save_checkpoint,
)
from .scenesim import (
    ScenarioSpec,
    SimError,
    apply_scenario,
    generate_scene,
    load_dataset,
    write_dataset,
)
from .train import DivergenceError, run_inference, train_loop

CONFIG_EXIT = 2
ERROR_EXIT = 1


class CliError(RuntimeError):
    pass


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.load(args.config)
    else:
        cfg = RunConfig()
        cfg.validate()
    for item in args.override or []:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        cfg.apply_override(dotted, raw)
    if args.seed is not None:
        cfg.sim.seed = args.seed
        cfg.train.seed = args.seed
        cfg.scenario.seed = args.seed
    cfg.validate()
    return cfg


def _report_extra(cfg: RunConfig, **kw) -> dict:
    extra = {"config_hash": cfg.hash(), "version": __version__}
    extra.update(kw)
    return extra


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    out = args.out
    if os.path.isdir(out) and os.listdir(out) and not args.force:
        raise CliError(f"output dir {out} is not empty (use --force to overwrite)")
    # each scene is written as it is made, so one is held at a time
    n = cfg.sim.num_scenes
    write_dataset(out, cfg, (generate_scene(cfg.model, cfg.sim, i) for i in range(n)))
    print(f"wrote {n} scenes to {out}")
    return 0


def _load_params(cfg: RunConfig, checkpoint: str | None):
    store = init_model_params(cfg.model, seed=cfg.train.seed)
    step = 0
    optimizer: dict = {}
    if checkpoint:
        tensors, step, model_hash, optimizer = load_checkpoint(checkpoint)
        if model_hash != cfg.model.hash():
            raise CheckpointError(f"checkpoint {checkpoint} was trained under model config "
                                  f"{model_hash}, not this config's {cfg.model.hash()}")
        restore_into(store, tensors)
    return store, step, optimizer


def _decode_setup(args) -> tuple:
    """The config, scenes and parameters that infer, eval and robustness
    decode with."""
    cfg = _load_config(args)
    scenes = load_dataset(args.dataset, cfg)
    store, _, _ = _load_params(cfg, args.checkpoint)
    return cfg, scenes, store


def cmd_train(args) -> int:
    cfg = _load_config(args)
    scenes = load_dataset(args.dataset, cfg)
    store, start_step, velocity = _load_params(cfg, args.resume)
    if start_step > cfg.train.steps:
        raise CliError(f"checkpoint {args.resume} is at step {start_step}, past "
                       f"train.steps={cfg.train.steps}")
    log_path = args.out + ".log.jsonl"
    # the log is written whole or not at all, so a resumed run starts from a
    # copy of the log it continues
    with atomic_open(log_path, "wb") as log_fh:
        if args.resume and os.path.exists(log_path):
            with open(log_path, "rb") as old:
                shutil.copyfileobj(old, log_fh)

        def log_fn(rec):
            log_fh.write((json.dumps(rec, sort_keys=True) + "\n").encode("utf-8"))

        train_loop(cfg, scenes, store, start_step=start_step, log_fn=log_fn,
                   velocity=velocity)
    save_checkpoint(args.out, store, cfg.train.steps, cfg.model.hash(), optimizer=velocity)
    print(f"trained to step {cfg.train.steps}; checkpoint at {args.out}")
    return 0


def cmd_infer(args) -> int:
    cfg, scenes, store = _decode_setup(args)
    preds, _ = run_inference(
        cfg, scenes, store, fusion=args.fusion,
        oracle_uncertainty=args.oracle_uncertainty,
    )
    doc = {
        "scenes": [
            {"scene_id": sc.scene_id, "boxes": [b.to_dict() for b in pb]}
            for sc, pb in zip(scenes, preds)
        ],
        **_report_extra(cfg),
    }
    write_json(args.out, doc)
    print(f"wrote predictions for {len(scenes)} scenes to {args.out}")
    return 0


def _evaluate(cfg: RunConfig, scenes, store, fusion, oracle_uncertainty):
    preds, gts = run_inference(
        cfg, scenes, store, fusion=fusion, oracle_uncertainty=oracle_uncertainty
    )
    return evaluate_detections(
        preds, gts, cfg.model.num_classes,
        thresholds=tuple(cfg.eval.thresholds),
        tp_threshold=cfg.eval.tp_threshold,
        bins=tuple(cfg.eval.bins),
    )


def cmd_eval(args) -> int:
    cfg, scenes, store = _decode_setup(args)
    report = _evaluate(cfg, scenes, store, args.fusion, args.oracle_uncertainty)
    write_report_json(
        args.out, report,
        _report_extra(cfg, fusion=args.fusion, scenario="clean"),
    )
    write_bins_csv(os.path.splitext(args.out)[0] + "_bins.csv", report)
    print(f"mAP {report.map_value:.4f}  NDS {report.nds_value:.4f} -> {args.out}")
    return 0


def cmd_robustness(args) -> int:
    cfg, scenes, store = _decode_setup(args)
    os.makedirs(args.out, exist_ok=True)
    summary = {"fusion": args.fusion, "scenarios": {}, **_report_extra(cfg)}
    for name in ("clean", *(args.scenario or ScenarioSection.KINDS)):
        pool = scenes
        if name != "clean":
            spec = ScenarioSpec.from_config(cfg.scenario)
            spec.kind = name
            # each corrupted scene is decoded as it is made, not pooled
            pool = (apply_scenario(sc, spec, cfg.model, cfg.sim) for sc in scenes)
        report = _evaluate(cfg, pool, store, args.fusion, args.oracle_uncertainty)
        write_report_json(
            os.path.join(args.out, f"{name}_{args.fusion}.json"), report,
            _report_extra(cfg, fusion=args.fusion, scenario=name),
        )
        scores = {"map": report.map_value, "nds": report.nds_value}
        if name == "clean":
            summary["clean"] = scores
        else:
            drop = summary["clean"]["nds"] - report.nds_value
            summary["scenarios"][name] = {**scores, "nds_drop": drop}
    write_json(os.path.join(args.out, f"summary_{args.fusion}.json"), summary)
    print(json.dumps(summary["scenarios"], sort_keys=True, indent=1))
    return 0


def cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise CliError(f"--seeds must be >= 1, got {args.seeds}")
    results = run_suite(num_seeds=args.seeds)
    doc = {"results": results, "version": __version__}
    if args.out:
        write_json(args.out, doc)
    ok = True
    for name, res in results.items():
        print(f"{name:22s} max_rel={res['max_rel_error']:.3e} "
              f"{'PASS' if res['passed'] else 'FAIL'}")
        ok &= res["passed"]
    return 0 if ok else ERROR_EXIT


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    kernels = [args.kernel] if args.kernel else list(KERNELS)
    reports = [bench_kernel(k, cfg, args.reps) for k in kernels]
    doc = {"reports": [dataclasses.asdict(r) for r in reports],
           **_report_extra(cfg), **machine_info()}
    if args.out:
        write_json(args.out, doc)
    for r in reports:
        p90 = "    n/a" if r.p90_ms is None else f"{r.p90_ms:7.3f}"
        print(f"{r.kernel:16s} p50 {r.p50_ms:7.3f} ms  p90 {p90} ms  "
              f"{r.queries_per_s:9.0f} q/s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fusiondet", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, dataset=False, out_required=True):
        sp.add_argument("--config", help="JSON config path (defaults apply if omitted)")
        sp.add_argument("--seed", type=int, help="override sim/train/scenario seeds")
        sp.add_argument("--override", "-O", action="append", metavar="KEY=VALUE",
                        help="override a config leaf via dotted path")
        if dataset:
            sp.add_argument("--dataset", required=True, help="dataset directory")
        sp.add_argument("--out", required=out_required, help="output path")

    def decoding(name, help_text, fn):
        sp = sub.add_parser(name, help=help_text)
        common(sp, dataset=True)
        sp.add_argument("--checkpoint", help="checkpoint file")
        sp.add_argument("--fusion", choices=["uaf", "equal"], default="uaf")
        sp.add_argument("--oracle-uncertainty", action="store_true")
        sp.set_defaults(fn=fn)
        return sp

    sp = sub.add_parser("generate", help="write a synthetic scene dataset")
    common(sp)
    sp.add_argument("--force", action="store_true", help="overwrite non-empty dir")
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("train", help="toy training run")
    common(sp, dataset=True)
    sp.add_argument("--resume", help="checkpoint to resume from")
    sp.set_defaults(fn=cmd_train)

    decoding("infer", "decode a dataset to predictions JSON", cmd_infer)
    decoding("eval", "evaluate a checkpoint on a dataset", cmd_eval)
    sp = decoding("robustness", "clean + sensor-failure scenario reports", cmd_robustness)
    sp.add_argument("--scenario", action="append",
                    choices=ScenarioSection.KINDS,
                    help="scenario(s) to run (default: all)")

    sp = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    sp.add_argument("--seeds", type=int, default=100)
    sp.add_argument("--out", help="JSON report path")
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("bench", help="kernel micro-benchmarks")
    common(sp, out_required=False)
    sp.add_argument("--kernel", choices=list(KERNELS))
    sp.add_argument("--reps", type=int, default=100)
    sp.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging run or a draw the simulator cannot make ends in one
        # line, without numpy's floating-point warnings before it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except (CliError, SimError, CheckpointError, BenchError, DivergenceError, GeometryError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
