"""Command-line front end.

Four commands: ``qfi`` evaluates one parameter point, ``sweep`` writes a
CSV grid (the defaults regenerate the standard gain-surface window),
``verify`` runs the cross-module invariant suites, and ``mc`` runs the
Monte Carlo Cramér-Rao experiment. CSV is the only output format; plots
are expected to be made externally from the CSV.

Exit codes: 0 success, 1 I/O or verification failure, 2 domain error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from . import correlations, mc, protocol, qfi, verify
from .linop import DimensionError

CSV_HEADER = "n,m,r,lambda,H_ind,H_corr,gain,discord,min_pt_eig,separable"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _grid(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0.0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if hi < lo:
        return []
    count = int((hi - lo) / step + 1e-9) + 1
    return [lo + k * step for k in range(count)]


def sweep_rows(
    n: int, m: int, lams: Iterable[float], rs: Iterable[float]
) -> list[str]:
    """One CSV row per grid point, channel-strength-major then polarization.

    Each strength's polarization vector is evaluated in one call per
    column: one j-sum for H_corr and gain, and for n = 2 the closed-form
    discord and partial-transpose eigenvalue. Polarization endpoints use
    the closed-form limits: at r=0 the gain column holds the
    vanishing-polarization limit (both Fisher informations are zero), at
    r=1 the pure-state limit with the correlation columns left empty.
    """
    rs = np.array(list(rs), dtype=float)
    inner = (rs > 0.0) & (rs < 1.0)
    zero, one, below_one = rs == 0.0, rs == 1.0, rs < 1.0
    heads = [f"{n},{m},{_fmt(r)}," for r in rs.tolist()]
    tails = [",,"] * len(rs)
    rows = []
    for lam in lams:
        h_ind = qfi.qfi_independent_opt(rs, lam, m)
        h_corr = np.zeros(len(rs))
        g = np.empty(len(rs))
        if inner.any():
            h_corr[inner], g[inner] = protocol.qfi_and_gain(n, m, rs[inner], lam)
        if zero.any():
            g[zero] = protocol.gain_limit_r0(n, m, lam)
        if one.any():
            g[one] = protocol.gain_limit_r1(m, lam)
            h_corr[one] = g[one] * h_ind[one]
        if n == 2 and below_one.any():
            disc = correlations.discord_protocol(rs[below_one], lam, m).Q
            sep, min_eig = correlations.ppt_closed_form(rs[below_one], lam, m)
            diag = iter(
                f"{_fmt(d)},{_fmt(e)},{'true' if s else 'false'}"
                for d, e, s in zip(disc.tolist(), min_eig.tolist(), sep.tolist())
            )
            tails = [next(diag) if b else ",," for b in below_one.tolist()]
        lam_s = _fmt(lam)
        for head, hi, hc, gg, tail in zip(
            heads, h_ind.tolist(), h_corr.tolist(), g.tolist(), tails
        ):
            rows.append(f"{head}{lam_s},{_fmt(hi)},{_fmt(hc)},{_fmt(gg)},{tail}")
    return rows


def _cmd_qfi(args) -> int:
    point = protocol.ProtocolPoint(args.n, args.m, args.r, args.lam)
    h_ind = qfi.qfi_independent_opt(args.r, args.lam, args.m)
    h_corr = protocol.qfi_correlated(point)
    g = protocol.gain(point)
    bound = qfi.qfi_upper_bound(args.lam, args.m)
    print(
        f"n={args.n} m={args.m} r={_fmt(args.r)} lambda={_fmt(args.lam)} "
        f"H_ind={_fmt(h_ind)} H_corr={_fmt(h_corr)} gain={_fmt(g)} bound={_fmt(bound)}"
    )
    return 0


def _cmd_sweep(args) -> int:
    lams = _grid(args.lambda_min, args.lambda_max, args.lambda_step)
    rs = _grid(args.r_min, args.r_max, args.r_step)
    rows = sweep_rows(args.n, args.m, lams, rs)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    results = verify.run_suites(names, n_max=args.n_max)
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok &= res.passed
        print(f"{status} {res.name:<20} max_err={res.max_error:.3e} ({res.detail})")
    return 0 if all_ok else 1


def _cmd_mc(args) -> int:
    cfg = mc.ExperimentConfig(
        r=args.r,
        lambda_true=args.lam,
        m=args.m,
        trials=args.trials,
        shots_per_trial=args.shots,
        seed=args.seed,
    )
    result = mc.run_experiment(cfg)
    if args.out:
        body = "".join(
            f"{t},{_fmt(est)}\n" for t, est in enumerate(result.estimates.tolist())
        )
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("trial,lambda_hat\n" + body)
    ratio = result.sample_variance / result.crb
    print(
        f"mean={_fmt(result.mean)} variance={_fmt(result.sample_variance)} "
        f"crb={_fmt(result.crb)} ratio={_fmt(ratio)} "
        f"fisher={_fmt(result.fisher_classical)} clamped={result.n_clamped}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulifish",
        description=(
            "Fisher information, gain, separability and discord for "
            "phase-flip parameter estimation with mixed states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qfi = sub.add_parser("qfi", help="evaluate one parameter point")
    p_qfi.add_argument("--n", type=int, required=True, help="number of qubits (>= 2)")
    p_qfi.add_argument("--m", type=int, required=True, help="channel invocations (1..n)")
    p_qfi.add_argument("--r", type=float, required=True, help="polarization in (0, 1)")
    p_qfi.add_argument(
        "--lambda", dest="lam", type=float, required=True, help="channel strength in [0, 1]"
    )
    p_qfi.set_defaults(fn=_cmd_qfi)

    p_sweep = sub.add_parser(
        "sweep",
        help="write a CSV grid of Fisher informations, gain and correlations",
        description=(
            "Columns: " + CSV_HEADER + ". Rows are channel-strength-major, "
            "then polarization, 12 significant digits, LF endings. "
            "Correlation columns are filled only for n=2 (and left empty at "
            "r=1, where the closed forms do not apply); r=0 and r=1 rows "
            "report the analytic gain limits."
        ),
    )
    p_sweep.add_argument("--n", type=int, default=2)
    p_sweep.add_argument("--m", type=int, default=1)
    p_sweep.add_argument("--lambda-min", type=float, default=0.05)
    p_sweep.add_argument("--lambda-max", type=float, default=0.95)
    p_sweep.add_argument("--lambda-step", type=float, default=0.05)
    p_sweep.add_argument("--r-min", type=float, default=0.0)
    p_sweep.add_argument("--r-max", type=float, default=1.0)
    p_sweep.add_argument("--r-step", type=float, default=0.05)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify",
        help="run the invariant suites; exit 0 only if every suite passes",
    )
    p_verify.add_argument(
        "--suite", choices=sorted(verify.SUITES), help="run a single suite"
    )
    p_verify.add_argument(
        "--n-max", type=int, default=5, help="qubit cap for the oracle/bounds suites"
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_mc = sub.add_parser(
        "mc", help="Monte Carlo Cramér-Rao experiment for the independent protocol"
    )
    p_mc.add_argument("--r", type=float, required=True)
    p_mc.add_argument("--lambda", dest="lam", type=float, required=True)
    p_mc.add_argument("--m", type=int, default=1)
    p_mc.add_argument("--shots", type=int, default=100_000)
    p_mc.add_argument("--trials", type=int, default=200)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--out", help="per-trial estimates CSV path")
    p_mc.set_defaults(fn=_cmd_mc)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (ValueError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout: say nothing, and send the interpreter's
        # final flush of what is still buffered to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
