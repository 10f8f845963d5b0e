"""Command-line front end: trial batches with on-disk reports, gradient
verification, and scenario validation.

Exit codes: 0 success (with --assert: all trials landed and the batch's
mean landing error is inside its bound), 1 failure, 2 invalid
configuration.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import (ScenarioError, batch_report, load_scenario,
                      render_table, run_trials)
from .ocp import NmpcSolver, gradient_check
from .platform import LandingPhase, build_reference_plan, platform_state_at
from .sim import NOISE_PRESETS, noise_preset

# mean-FPE acceptance bounds in cm, keyed by (moving platform, has obstacles)
_FPE_BOUNDS = {
    (False, False): 5.0,
    (False, True): 8.0,
    (True, False): 10.0,
    (True, True): 15.0,
}


def _fpe_bound(scenario) -> float:
    moving = scenario.platform.kind != "static"
    return _FPE_BOUNDS[(moving, bool(scenario.cbf.obstacles))]


def _load(args):
    sc = load_scenario(args.scenario)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.noise is not None:
        overrides["noise"] = noise_preset(args.noise)
    if overrides:
        sc = dataclasses.replace(sc, **overrides)
    return sc


def _cmd_run(args) -> int:
    sc = _load(args)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        return 2
    logs = run_trials(sc)
    report = batch_report(sc, logs)
    for log in logs:
        log.write_csv(out / f"trial_{log.seed}.csv")
        with open(out / f"trial_{log.seed}.json", "w") as f:
            json.dump(log.summary_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
    (out / "report.json").write_text(report.to_json())
    (out / "report.txt").write_text(render_table(report))
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(render_table(report))
    ok = report.n_trials > 0 and report.n_success == report.n_trials
    if ok and args.assert_bounds:
        # every trial landed, so none broke the safety floor
        ok = report.mean_fpe_cm <= _fpe_bound(sc)
        if not ok:
            print(f"assert: batch outside acceptance bounds "
                  f"(mean fpe bound {_fpe_bound(sc):g} cm)", file=sys.stderr)
    return 0 if ok else 1


def _cmd_check_gradients(args) -> int:
    if args.points < 1 or not args.tol > 0 or args.seed < 0:
        print("error: --points must be at least 1, --tol positive and "
              "--seed non-negative", file=sys.stderr)
        return 2
    sc = load_scenario(args.scenario)
    solver = NmpcSolver(sc.nmpc, sc.cbf, sc.params)
    p_plat, v_plat = platform_state_at(sc.platform, 0.0)
    # tracking-phase plan so the anchor pull term is part of the objective
    plan = build_reference_plan(LandingPhase.TRACK, p_plat, v_plat,
                                float(sc.x0[8]), sc.nmpc, sc.thresholds, 0.0)
    rep = gradient_check(solver, plan, n_points=args.points, tol=args.tol,
                         seed=args.seed)
    print(f"gradient check [{sc.name}]: {rep.n_points} points, "
          f"max relative error {rep.max_rel_err:.3e} "
          f"(tol {rep.tol:g}) -> {'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def _cmd_validate(args) -> int:
    sc = load_scenario(args.scenario)
    print(f"scenario '{sc.name}' ok: platform {sc.platform.kind}, "
          f"{sc.cbf.n_obstacles} obstacle(s), {sc.trials} trials, "
          f"timeout {sc.timeout:g} s")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="lander",
        description="closed-loop quadrotor landing simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a seeded trial batch and write "
                                   "logs and reports")
    p.add_argument("--scenario", required=True,
                   help="scenario JSON file or builtin name")
    p.add_argument("--trials", type=int, default=None,
                   help="override the scenario's trial count")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's base seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--noise", choices=sorted(NOISE_PRESETS), default=None,
                   help="override the scenario's noise preset")
    p.add_argument("--format", choices=("json", "table"), default="table",
                   help="stdout rendering of the batch report")
    p.add_argument("--assert", dest="assert_bounds", action="store_true",
                   help="exit 1 unless the batch meets its acceptance bounds")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check-gradients",
                       help="verify analytic gradients against central "
                            "finite differences")
    p.add_argument("--scenario", required=True)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_gradients)

    p = sub.add_parser("validate", help="load and validate a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_validate)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"error: invalid scenario: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
