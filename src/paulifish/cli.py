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
import math
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from . import correlations, mc, protocol, qfi, verify

CSV_HEADER = "n,m,r,lambda,H_ind,H_corr,gain,discord,min_pt_eig,separable"

#: Most rows one sweep may write; larger grids are rejected before allocation.
MAX_SWEEP_ROWS = 10**7

# Most (lam, r) cells a sweep evaluates per layer call. Larger blocks save
# under 10 % of sweep_rows' time and raise peak memory: on the 21 000-row
# n = 2 grid the sweep's peak RSS is 0.1 % above a one-row-per-call sweep at
# 1024 cells, 0.8 % at 4096, 5.6 % at 16384 and 6.6 % for the whole grid.
_BLOCK_CELLS = 1024

# Trial rows formatted per write, so a large mc run never holds its whole CSV text.
_MC_ROWS_PER_WRITE = 2**16


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _grid_size(lo: float, hi: float, step: float) -> int:
    """Number of points lo, lo + step, ... up to hi; checked before any allocation."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"grid bounds and step must be finite, got {lo}, {hi}, {step}")
    if step <= 0.0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if hi < lo:
        return 0
    span = (hi - lo) / step + 1e-9
    if not span < MAX_SWEEP_ROWS:
        raise ValueError(f"grid step {step} gives more than {MAX_SWEEP_ROWS} points")
    return int(span) + 1


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """The points lo + k step, the last one clipped to hi: rounding may put
    lo + k step a few ulps past hi, outside the domain when hi is its edge."""
    return [min(lo + k * step, hi) for k in range(_grid_size(lo, hi, step))]


def sweep_rows(
    n: int, m: int, lams: Iterable[float], rs: Iterable[float]
) -> list[str]:
    """One CSV row per grid point, channel-strength-major then polarization.

    The (lam, r) mesh is evaluated in blocks of whole strength rows, at most
    1024 cells each (one row if a row alone is larger), with one call per
    layer per block: one j-sum for H_corr and gain, one call each for H_ind
    and the r=0 and r=1 limits, and for n = 2 the closed-form discord and
    partial-transpose eigenvalue. A block bounds the (n+1, cells)
    temporaries of the j-sum. Polarization endpoints use the closed-form
    limits: at r=0 the gain column holds the vanishing-polarization limit
    (both Fisher informations are zero), at r=1 the pure-state limit with
    the correlation columns left empty. Any cell outside a closed form's
    domain fails the whole sweep.
    """
    protocol._validate_nm(n, m)
    lams = np.array(list(lams), dtype=float)
    rs = np.array(list(rs), dtype=float)
    inner = (rs > 0.0) & (rs < 1.0)
    zero, one, below_one = rs == 0.0, rs == 1.0, rs < 1.0
    diagnosed = n == 2 and below_one.any()
    # One %-template per polarization. With correlation columns every cell
    # takes seven values; "%.0s" prints the three of an r = 1 cell as empty.
    if diagnosed:
        tails = ["%.12g,%.12g,%s" if b else "%.0s,%.0s,%.0s" for b in below_one.tolist()]
    else:
        tails = [",,"] * len(rs)
    templates = [
        f"{n},{m},{_fmt(r)},%.12g,%.12g,%.12g,%.12g,{tail}"
        for r, tail in zip(rs.tolist(), tails)
    ]
    r_cols = rs[None, :]
    rows_per_block = max(1, _BLOCK_CELLS // max(1, len(rs)))
    rows = []
    for start in range(0, len(lams), rows_per_block):
        lam = lams[start : start + rows_per_block, None]
        h_ind = qfi.qfi_independent_opt(r_cols, lam, m)
        h_corr = np.zeros(h_ind.shape)
        g = np.empty(h_ind.shape)
        if inner.any():
            h_corr[:, inner], g[:, inner] = protocol.qfi_and_gain(n, m, r_cols[:, inner], lam)
        if zero.any():
            g[:, zero] = protocol.gain_limit_r0(n, m, lam)
        if one.any():
            g[:, one] = protocol.gain_limit_r1(m, lam)
            h_corr[:, one] = g[:, one] * h_ind[:, one]
        columns = [np.broadcast_to(lam, h_ind.shape), h_ind, h_corr, g]
        if diagnosed:
            disc, min_eig = np.zeros(h_ind.shape), np.zeros(h_ind.shape)
            sep = np.zeros(h_ind.shape, dtype=bool)
            r_diag = r_cols[:, below_one]
            disc[:, below_one] = correlations.discord_protocol(r_diag, lam, m)
            sep[:, below_one], min_eig[:, below_one] = correlations.ppt_closed_form(r_diag, lam, m)
            columns += [disc, min_eig, np.where(sep, "true", "false")]
        # a row at a time, so the Python floats alive at once stay one row's
        for row in zip(*columns):
            rows += map(str.__mod__, templates, zip(*(c.tolist() for c in row)))
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
    lam_axis = (args.lambda_min, args.lambda_max, args.lambda_step)
    r_axis = (args.r_min, args.r_max, args.r_step)
    size = _grid_size(*lam_axis) * _grid_size(*r_axis)
    if size > MAX_SWEEP_ROWS:
        raise ValueError(f"the grid has {size} rows, more than {MAX_SWEEP_ROWS}")
    rows = sweep_rows(args.n, args.m, _grid(*lam_axis), _grid(*r_axis))
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
        est = result.estimates
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("trial,lambda_hat\n")
            for start in range(0, est.size, _MC_ROWS_PER_WRITE):
                block = est[start : start + _MC_ROWS_PER_WRITE].tolist()
                fh.write("".join(map("%d,%.12g\n".__mod__, zip(range(start, est.size), block))))
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
    except ValueError as exc:
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
