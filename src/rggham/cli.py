"""Command line interface.

Subcommands: gen (sample an instance to CSV), ham (construct a cycle),
verify (check a cycle file), sweep (Monte Carlo grid), bench (scaling
timings), alpha (unit disk area).

Exit codes: 0 success; 1 verify found the cycle invalid; 2 invalid
arguments or malformed input; 3 I/O failure; 10 and up map construction
failure reasons (10 + the reason's position in the failure enum).
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (SweepConfig, scaling_bench, sweep, write_sweep_csv,
                          write_sweep_json)
from .failures import ConstructionError
from .geometry import unit_disk_area, validate_p
from .hamiltonian import full_construction, verify_cycle
from .instance import (EpsilonAbove, EpsilonBelow, ExplicitRadius,
                       InstanceConfig, ThresholdMultiple, VertexSet,
                       open_output, resolve_radius, sample_points,
                       threshold_radius)


def _list_of(kind):
    """An argparse type: a comma separated list of kind."""
    def parse(text: str) -> list:
        try:
            return [kind(x) for x in text.split(",") if x.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma separated {kind.__name__} list: {text!r}")
    return parse


def _add_radius_group(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--radius", type=float, help="explicit radius")
    grp.add_argument("--multiplier", "--mult", type=float,
                     help="radius as a multiple of the connectivity threshold")
    grp.add_argument("--eps-above", type=float,
                     help="radius from disk area shrunk by eps (supercritical)")
    grp.add_argument("--eps-below", type=float,
                     help="radius from disk area grown by eps (subcritical)")


def _radius_spec(args: argparse.Namespace):
    if args.radius is not None:
        return ExplicitRadius(args.radius)
    if args.multiplier is not None:
        return ThresholdMultiple(args.multiplier)
    if args.eps_above is not None:
        return EpsilonAbove(args.eps_above)
    return EpsilonBelow(args.eps_below)


def _load_cycle(path: str):
    import numpy as np
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError:
                raise ValueError(f"cycle file line {lineno}: not an integer: {line!r}")
            # an entry past int64 is outside [0, n) too: -1 keeps the
            # NotPermutation verdict at its position
            values.append(v if -2**63 <= v < 2**63 else -1)
    return np.array(values, dtype=np.int64)


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = InstanceConfig(n=args.n, p=args.p, radius=_radius_spec(args),
                         seed=args.seed)
    r = cfg.resolved_radius()
    vs = sample_points(cfg)
    print(f"r = {r:.17g} (threshold {threshold_radius(args.n, args.p):.17g})",
          file=sys.stderr)
    vs.to_csv(args.out or sys.stdout)
    return 0


def cmd_ham(args: argparse.Namespace) -> int:
    """Construct a verified cycle for a points file.

    With --json, success prints {"outcome": "CycleVerified", "n", "r",
    "cells_per_side"} plus "cycle" when no -o file takes it; cells_per_side
    is the subdivision full_construction derived from n, p and r, and null
    whenever the cycle came from the serpentine fallback (which alone
    answers r > 1). A failure always prints {"outcome":
    "Failure", "n", "r", "reason", "context"} and exits 10 + the reason's
    position in FailureReason.
    """
    vs = VertexSet.from_csv(args.points)
    validate_p(args.p)
    r = resolve_radius(len(vs), args.p, _radius_spec(args))
    try:
        out = full_construction(vs.points, args.p, r)
    except ConstructionError as exc:
        # failures are machine-readable regardless of --json
        print(json.dumps({"outcome": "Failure", "n": len(vs), "r": r,
                          **exc.to_json()}))
        return exc.reason.exit_code
    if args.out or not args.json:
        with open_output(args.out or sys.stdout) as fh:
            fh.write("\n".join(str(v) for v in out.cycle) + "\n")
    if args.json:
        payload = {"outcome": "CycleVerified", "n": len(vs), "r": r,
                   "cells_per_side": out.cells_per_side}
        if not args.out:
            payload["cycle"] = out.cycle.tolist()
        print(json.dumps(payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    vs = VertexSet.from_csv(args.points)
    validate_p(args.p)
    cycle = _load_cycle(args.cycle)
    if len(cycle) != len(vs):
        # wrong entry count is a malformed file, not a judged cycle
        raise ValueError(f"cycle file has {len(cycle)} entries "
                         f"for {len(vs)} points")
    # no slack means none, also at an infinite radius (0 * inf is NaN)
    tolerance = args.rtol * args.radius if args.rtol else 0.0
    report = verify_cycle(vs.points, args.radius, args.p, cycle,
                          tolerance=tolerance)
    if args.json:
        print(json.dumps(report.to_json()))
    elif report.valid:
        print(f"valid cycle over {report.n} vertices")
    else:
        v = report.violation
        detail = f" distance {v.distance:.17g}" if v.distance is not None else ""
        print(f"invalid: {v.kind} at position {v.position}{detail}")
    return 0 if report.valid else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(ns=tuple(args.ns), p=args.p,
                      multipliers=tuple(args.multipliers), trials=args.trials,
                      base_seed=args.seed, workers=args.workers)
    rows = sweep(cfg)
    write_sweep_csv(rows, sys.stdout)
    if args.csv:
        write_sweep_csv(rows, args.csv)
    if args.json_out:
        write_sweep_json(rows, args.json_out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    rows = scaling_bench(args.ns, args.p, multiplier=args.multiplier,
                         trials=args.trials, base_seed=args.seed)
    if args.json:
        print(json.dumps([row.to_json() for row in rows]))
    else:
        for row in rows:
            ratio = f"{row.ratio:.2f}" if row.ratio is not None else "-"
            print(f"n={row.n:<8d} r={row.r:<10.6g} median={row.median_ms:9.3f}ms"
                  f"  ratio={ratio}")
    return 0


def cmd_alpha(args: argparse.Namespace) -> int:
    area = unit_disk_area(args.p)
    if args.json:
        print(json.dumps({"p": args.p, "area": area}))
    else:
        print(f"{area:.15g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rggham",
        description="Hamiltonian cycles in random geometric graphs near the "
                    "connectivity threshold")
    subs = parser.add_subparsers(dest="cmd", required=True)

    sub = subs.add_parser("gen", help="sample an instance to CSV")
    sub.add_argument("-n", "--n", dest="n", type=int, required=True)
    sub.add_argument("-p", "--p", dest="p", type=float, required=True)
    sub.add_argument("--seed", type=int, default=0)
    _add_radius_group(sub)
    sub.add_argument("-o", "--out", help="points CSV path (default stdout)")
    sub.set_defaults(func=cmd_gen)

    sub = subs.add_parser("ham", help="construct a Hamiltonian cycle")
    sub.add_argument("--points", required=True, help="points CSV")
    sub.add_argument("-p", "--p", dest="p", type=float, required=True)
    _add_radius_group(sub)
    sub.add_argument("-o", "--out", help="cycle file path (default stdout)")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_ham)

    sub = subs.add_parser("verify", help="verify a cycle file")
    sub.add_argument("--points", required=True)
    sub.add_argument("--cycle", required=True)
    sub.add_argument("-p", "--p", dest="p", type=float, required=True)
    sub.add_argument("--radius", type=float, required=True)
    sub.add_argument("--rtol", type=float, default=0.0,
                     help="edge slack as a fraction of the radius")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("sweep", help="Monte Carlo success-rate grid")
    sub.add_argument("--ns", type=_list_of(int), required=True)
    sub.add_argument("-p", "--p", dest="p", type=float, required=True)
    sub.add_argument("--multipliers", type=_list_of(float), required=True)
    sub.add_argument("--trials", type=int, default=20)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--csv", help="also write rows to this CSV file")
    sub.add_argument("--json-out", help="also write rows to this JSON file")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("bench", help="construction scaling benchmark")
    sub.add_argument("--ns", type=_list_of(int), required=True)
    sub.add_argument("-p", "--p", dest="p", type=float, required=True)
    sub.add_argument("--multiplier", "--mult", type=float, default=2.0)
    sub.add_argument("--trials", type=int, default=3)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_bench)

    sub = subs.add_parser("alpha", help="unit disk area for a norm")
    sub.add_argument("p", type=float)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_alpha)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
