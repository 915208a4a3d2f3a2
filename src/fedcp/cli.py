"""Command-line entry points: generate, run, evaluate, budget.

Exit codes: 0 success/converged, 2 epoch or budget limit reached,
1 any error.
"""

import argparse
import math
import os
import sys
import warnings

from . import data
from .errors import ConfigError
from .federation import RunResult, run_experiment
from .privacy import compose_serial, rho_for_target, zcdp_to_dp, zcdp_to_dp_approx
from .tensor import FactorizationResult, fms_report, zero_column_count, zero_columns

CSV_HEADER = "epoch,rmse,comm_bytes,comm_seconds,rho_total,eps_exact,eps_approx"


def report_lines(cfg: data.ExperimentConfig, result: RunResult, reference_fms=None):
    """What a run prints: config echo, per-epoch rows, the final budget,
    each site's zero columns and, when given, the FMS against a reference."""
    yield (
        f"run: sites={cfg.sites} rank={cfg.rank} eta={cfg.eta} gamma={cfg.gamma} "
        f"mu={cfg.mu} tau={cfg.tau} clip={cfg.clip} rho={cfg.rho} delta={cfg.delta} "
        f"seed={cfg.seed}"
    )
    yield CSV_HEADER
    for m in result.metrics:
        yield _csv_row(m)
    total = result.accountant.rho_total
    eps_exact, eps_approx = result.accountant.epsilon()
    yield (
        f"total: epochs={len(result.metrics)} converged={result.converged} "
        f"rho_total={total!r} eps_exact={eps_exact!r} eps_approx={eps_approx!r} "
        f"delta={cfg.delta!r}"
    )
    yield "zero_columns_per_site: " + " ".join(
        f"{t}:{zero_column_count(site.A)}" for t, site in enumerate(result.sites)
    )
    if reference_fms is not None:
        yield f"fms_vs_reference={reference_fms!r}"


def _csv_row(m) -> str:
    return (
        f"{m.epoch},{m.rmse!r},{m.comm_bytes},{m.comm_seconds!r},"
        f"{m.rho_total!r},{m.eps_exact!r},{m.eps_approx!r}"
    )


def write_metrics_csv(metrics, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for m in metrics:
            fh.write(_csv_row(m) + "\n")


def cmd_generate(cfg: data.ExperimentConfig) -> int:
    tensor, shards, truths = data.generate_synthetic(cfg.synth_spec())
    os.makedirs(cfg.data_dir, exist_ok=True)
    data.write_coo(tensor, cfg.tensor_path())
    print(f"global: {tensor.nnz} entries -> {cfg.tensor_path()}")
    for t, (shard, truth) in enumerate(zip(shards, truths)):
        data.write_factors(truth, cfg.truth_path(t))
        print(f"site {t}: {shard.nnz} entries, truth factors -> {cfg.truth_path(t)}")
    return 0


def cmd_run(cfg: data.ExperimentConfig) -> int:
    tensor = data.read_coo(cfg.tensor_path())
    if cfg.shuffle_rows:
        tensor = data.permute_rows(tensor, cfg.seed)
    shards = data.partition_rows(tensor, cfg.sites)
    result = run_experiment(
        shards,
        rank=cfg.rank,
        params=cfg.solver_params(),
        priv=cfg.privacy_params(),
        seed=cfg.seed,
        max_epochs=cfg.max_epochs,
        tol=cfg.tol,
        transfer_rate=cfg.transfer_rate,
        fixed_epochs=cfg.fixed_epochs,
    )
    write_metrics_csv(result.metrics, cfg.metrics_csv)

    os.makedirs(cfg.factors_out, exist_ok=True)
    factors = [FactorizationResult(site.A, site.B, site.C) for site in result.sites]
    for t, mine in enumerate(factors):
        data.write_factors(mine, os.path.join(cfg.factors_out, f"site_{t}.factors"))

    reference_fms = None
    if cfg.reference_factors is not None:
        scores = []
        for t, mine in enumerate(factors):
            ref = data.read_factors(os.path.join(cfg.reference_factors, f"site_{t}.factors"))
            scores.append(fms_report(mine, ref).score)
        reference_fms = sum(scores) / len(scores)

    for line in report_lines(cfg, result, reference_fms):
        print(line)
    return 0 if result.converged else 2


def cmd_evaluate(path_a, path_b) -> int:
    x = data.read_factors(path_a)
    y = data.read_factors(path_b)
    report = fms_report(x, y)
    # a component whose column is zero in some mode; its weight, a product of
    # three norms, may also read 0 for columns that are merely tiny
    zero_x, zero_y = (zero_columns(f.A) | zero_columns(f.B) | zero_columns(f.C) for f in (x, y))
    print(f"fms={report.score!r}")
    print("permutation: " + " ".join(str(int(p)) for p in report.permutation))
    for r in range(x.rank):
        xi, xi_bar = float(report.weights_x[r]), float(report.weights_y[r])
        ratio = xi / xi_bar if xi_bar > 0 else math.inf
        flag = " zero-column" if zero_x[r] or zero_y[report.permutation[r]] else ""
        print(
            f"column {r}: match={int(report.permutation[r])} "
            f"cosine_product={float(report.cosine_products[r])!r} "
            f"lambda={xi!r} lambda_ref={xi_bar!r} ratio={ratio!r}{flag}"
        )
    return 0


def cmd_budget(epsilon, rho, delta, epochs) -> int:
    if (epsilon is None) == (rho is None):
        print("budget: give exactly one of --epsilon or --rho", file=sys.stderr)
        return 1
    for flag, value in (("--epsilon", epsilon), ("--rho", rho)):
        if value is not None and not value > 0:  # also rejects nan; inf stays valid
            print(f"budget: {flag} must be positive, got {value}", file=sys.stderr)
            return 1
    if not 0 < delta < 1:
        print(f"budget: delta must lie in (0, 1), got {delta}", file=sys.stderr)
        return 1
    if epochs < 1:
        print("budget: --epochs must be at least 1", file=sys.stderr)
        return 1
    if epsilon is not None:
        rho = rho_for_target(epsilon, delta, epochs)
        print(f"rho_b={rho!r}")
    for e in range(1, epochs + 1):
        total = compose_serial([rho] * (2 * e))
        print(
            f"epoch={e} rho_total={total!r} eps_exact={zcdp_to_dp(total, delta)!r} "
            f"eps_approx={zcdp_to_dp_approx(total, delta)!r} delta={delta!r}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcp",
        description="Collaborative sparse CP factorization with private uploads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic tensor and per-site truth factors")
    gen.add_argument("--config", required=True)
    gen.add_argument("--seed", type=int, default=None)

    run = sub.add_parser("run", help="run the federated factorization")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--no-noise", action="store_true", help="disable upload perturbation")
    run.add_argument("--fixed-epochs", type=int, default=None, help="run exactly E epochs")
    run.add_argument(
        "--shuffle-rows", action="store_true",
        help="permute patient rows before partitioning (IID shards)",
    )

    ev = sub.add_parser("evaluate", help="factor match score between two factor files")
    ev.add_argument("factors_a")
    ev.add_argument("factors_b")

    bud = sub.add_parser("budget", help="budget calculator")
    bud.add_argument("--epsilon", type=float, default=None)
    bud.add_argument("--rho", type=float, default=None)
    bud.add_argument("--delta", type=float, default=1e-4)
    bud.add_argument("--epochs", type=int, default=20)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    def show_warning(message, *_location):
        # the text alone, without the library file and source line it was
        # raised from: nothing there is a user's to change. The default
        # filter already shows a warning once per place it is raised from.
        print(f"fedcp: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():  # puts the caller's showwarning back
        warnings.showwarning = show_warning
        return _dispatch(args)


def _dispatch(args) -> int:
    try:
        if args.command == "generate":
            return cmd_generate(_load(args))
        if args.command == "run":
            return cmd_run(_load(args))
        if args.command == "evaluate":
            return cmd_evaluate(args.factors_a, args.factors_b)
        return cmd_budget(args.epsilon, args.rho, args.delta, args.epochs)
    except (OSError, ValueError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"fedcp: {exc}", file=sys.stderr)
        return 1


def _load(args) -> data.ExperimentConfig:
    try:
        cfg = data.load_config(args.config)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    # the flags that override config keys; generate has only --seed
    flags = vars(args)
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if flags.get("no_noise"):
        changes["rho"] = math.inf
    if flags.get("fixed_epochs") is not None:
        changes["fixed_epochs"] = args.fixed_epochs
    if flags.get("shuffle_rows"):
        changes["shuffle_rows"] = True
    return data.config_overrides(cfg, **changes)


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
