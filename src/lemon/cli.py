"""Command-line interface.

Exit codes: 0 success / verification pass, 1 verification fail,
2 usage error (bad flags, invalid plan or spec), 3 I/O or format error
(including running out of memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .container import (CheckpointReader, _read_head, _spec_from_dict,
                        load_model_config, read_header, replacing,
                        require_replaceable)
# not called here: kept for perfbench/tests, which look the binding up in this module
from .container import read_checkpoint  # noqa: F401
from .errors import ContainerError, LemonError, PlanError, SplitError
from .expander import (DEPTH_MODES, ExpansionPlan, expand_model,
                       post_ln_depth_is_inexact)
from .schedule import PRESETS, ScheduleSpec, write_schedule_csv
from .verify import (duplicate_map_path, init_random_model, load_duplicate_map,
                     symmetry_report, verify_lossless)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged,
    and building it costs about a millisecond, as much as a small command."""
    parser = argparse.ArgumentParser(
        prog="lemon",
        description="Losslessly expand small Transformer checkpoints, verify "
                    "functional equivalence, and emit fast-decay LR schedules.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a checkpoint to a wider/deeper model")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-width", type=int, required=True)
    p.add_argument("--target-depth", type=int, required=True)
    p.add_argument("--policy", default="lemon",
                   choices=["lemon", "net2net-equal", "zero-tail"])
    p.add_argument("--depth-mode", default="type1", choices=list(DEPTH_MODES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-scale", type=float, default=0.02)
    p.add_argument("--depth-source", default="self", choices=["self", "next"])

    p = sub.add_parser("verify", help="check two checkpoints compute the same function")
    p.add_argument("--small", required=True)
    p.add_argument("--big", required=True)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="max logit difference (default: 1e-10 for float64 "
                        "checkpoints, 1e-5 if either stores float32)")
    p.add_argument("--seq-len", type=int, default=16)

    p = sub.add_parser("schedule", help="emit a warmup+cosine schedule as CSV")
    p.add_argument("--max-lr", type=float)
    p.add_argument("--min-lr", type=float)
    p.add_argument("--total", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--out", required=True)

    p = sub.add_parser("inspect", help="print a checkpoint's spec and tensor table")
    p.add_argument("file")

    p = sub.add_parser("symmetry", help="report fan-out distances of replicated units")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--map", dest="map_path",
                   help="duplicate map JSON (default: sidecar written by expand)")

    p = sub.add_parser("init-random", help="write a deterministic random checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_expand(args) -> int:
    sidecar = duplicate_map_path(args.out)
    require_replaceable(sidecar)
    plan = ExpansionPlan(target_width=args.target_width,
                         target_depth=args.target_depth,
                         policy=args.policy.replace("-", "_"),
                         depth_mode=args.depth_mode,
                         seed=args.seed,
                         noise_scale=args.noise_scale,
                         depth_source=args.depth_source)
    with CheckpointReader(args.in_path) as source:
        spec = source.spec
        if post_ln_depth_is_inexact(source, plan):
            print("warning: growing the depth of a post_ln model with eps > 0 is lossless "
                  "only up to an O(eps) error; verify it with an explicit --tol",
                  file=sys.stderr)
        try:
            new_spec, dup_map = expand_model(source, plan, args.out)
        except SplitError as exc:
            # the sum checks hold for any finite split noise a float can carry
            # through; a scale that large is the usual way to fail them
            raise PlanError(f"--noise-scale {args.noise_scale:g} is too large for an "
                            f"exact split ({exc}); use a smaller one") from exc
    with replacing(sidecar) as fh:
        fh.write(json.dumps(dup_map, indent=1).encode("utf-8"))
    print(f"expanded ({spec.depth}, {spec.width}) -> "
          f"({new_spec.depth}, {new_spec.width}): {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_lossless(args.small, args.big, args.samples, args.seed,
                             args.tol, seq_len=args.seq_len)
    worst = max(report.samples, key=lambda s: s.abs_diff, default=None)
    print(f"max_abs_diff {report.max_abs_diff:.6e} (tol {report.tol:g}) "
          f"over {len(report.samples)} samples")
    if worst is not None:
        print(f"worst sample {worst.index} at position {worst.worst_position}")
    print(f"skipped {report.skipped} of {report.modules} big-model modules whose output "
          f"is exactly their bias")
    if report.embedding_diff is not None:
        print(f"embedding max_abs_diff {report.embedding_diff:.6e} over every token row")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_schedule(args) -> int:
    flags = (("--max-lr", args.max_lr), ("--min-lr", args.min_lr),
             ("--total", args.total), ("--warmup", args.warmup))
    if args.preset:
        given = [n for n, v in flags if v is not None]
        if given:
            raise PlanError(f"--preset {args.preset} excludes {' '.join(given)}")
        spec = PRESETS[args.preset]
    else:
        missing = [n for n, v in flags if v is None]
        if missing:
            raise PlanError(f"schedule needs {' '.join(missing)} (or --preset)")
        spec = ScheduleSpec(args.max_lr, args.min_lr, args.warmup, args.total).validate()
    write_schedule_csv(spec, args.out)
    print(f"wrote {spec.total + 1} steps to {args.out}")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    with open(args.file, "rb") as fh:
        spec_dict, table = read_header(*_read_head(fh))
    _spec_from_dict(spec_dict)  # an invalid spec is a malformed header
    lines = [json.dumps(spec_dict, indent=1)]
    for entry in table:
        shape = "x".join(map(str, entry["shape"])) or "scalar"
        lines.append(f"{entry['name']:40s} {entry['dtype']:>4s} {shape:>12s} "
                     f"@{entry['byte_offset']:<8d} {entry['byte_length']} bytes")
    total = sum(entry["byte_length"] for entry in table)
    lines.append(f"{len(table)} tensors, {total} payload bytes")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_symmetry(args) -> int:
    map_path = args.map_path
    if map_path is None:
        sidecar = duplicate_map_path(args.ckpt)
        try:
            dup_map = load_duplicate_map(sidecar)
        except FileNotFoundError:
            with CheckpointReader(args.ckpt):  # no map, but the checkpoint is checked
                pass
            print("no duplicate map: empty report")
            return EXIT_OK
    else:
        dup_map = load_duplicate_map(map_path)
    entries = symmetry_report(args.ckpt, dup_map)
    print("\n".join(f"block {e['block']:3d} {e['kind']:10s} source {e['source']:4d} "
                    f"replicas {e['replicas']} min_distance {e['min_distance']:.6e}"
                    for e in entries) or "empty report")
    return EXIT_OK


def _cmd_init_random(args) -> int:
    spec, dtype = load_model_config(args.config)
    init_random_model(spec, args.seed, args.out, dtype=dtype)
    print(f"wrote random ({spec.depth}, {spec.width}) model: {args.out}")
    return EXIT_OK


_COMMANDS = {
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "schedule": _cmd_schedule,
    "inspect": _cmd_inspect,
    "symmetry": _cmd_symmetry,
    "init-random": _cmd_init_random,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        return EXIT_OK
    except (ContainerError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_IO
    except (LemonError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
