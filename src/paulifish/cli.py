"""Command-line front end.

Four commands: ``qfi`` evaluates one parameter point, ``sweep`` writes a
CSV grid (the defaults regenerate the standard gain-surface window),
``verify`` runs the cross-module invariant suites, and ``mc`` runs the
Monte Carlo Cramér-Rao experiment. CSV is the only output format; plots
are expected to be made externally from the CSV. Each command imports
its modules when it runs, so ``mc`` loads neither the sweep's layers nor
the suites.

Commands run numpy's OpenBLAS on one thread. No command gives BLAS work
large enough to split (the largest matrix is verify's 16x16), and a second
thread only spins on start-up, about 0.1 s of CPU per command. A
user's own ``OPENBLAS_NUM_THREADS`` is kept.

Commands skip the interpreter's exit-time garbage collection: ``run``, the
entry point of ``paulifish`` and ``python -m paulifish.cli``, calls
``gc.freeze()`` once ``main`` returns or raises. At shutdown CPython runs a
full cyclic collection over about 21 000 tracked objects, most of them from
numpy's import, which took 24-45 ms from the end of ``main`` to the
process being reaped (2 cores, Python 3.11); frozen, they are out of its
reach, and it takes 6-11 ms. Nothing is left to it: ``--out`` and its
staging directory are closed by ``with`` blocks, ``main`` flushes stdout,
and ``atexit`` handlers and the interpreter's stdio flushes still run.
``main`` itself freezes nothing, so a host program or test that calls it
keeps its collector.

Exit codes: 0 success, 1 I/O or verification failure, 2 domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import stat
import sys
import tempfile
from typing import Iterable, Iterator, Sequence, TextIO

# Set before numpy loads OpenBLAS, which reads it once (see the module
# docstring). Only cli sets it: a command owns its process, while a host
# program that imports the package keeps its own environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

CSV_HEADER = "n,m,r,lambda,H_ind,H_corr,gain,discord,min_pt_eig,separable"

#: Most rows one sweep may write; larger grids are rejected before allocation.
MAX_SWEEP_ROWS = 10**7

# Most (lam, r) cells a sweep evaluates per layer call and writes per block.
# A block bounds the sweep's memory: on the 21 000-row n = 2 grid the
# command peaks at 30.3 MiB RSS with 1024 cells, 31.9 MiB with 4096,
# 37.7 MiB with 16384 and 40.0 MiB with the whole grid in one block, against
# 29.5 MiB for the import alone; the times differed by less than their noise.
_BLOCK_CELLS = 1024

#: The format of every number a command writes: 12 significant digits.
_FLOAT = "%.12g"


def _fmt(x: float) -> str:
    return _FLOAT % x


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


def _checked_axes(n: int, m: int, rs: Iterable[float], lams: Iterable[float]):
    """A grid's r and lam axes as arrays, once n, m and both axes are checked: r
    and lam in [0, 1], and no r = 1 with lam in {0, 1}, where the gain has no limit."""
    from . import linop, protocol

    protocol._validate_nm(n, m)
    rs = linop.check_unit_interval(list(rs), "polarization")
    lams = linop.check_unit_interval(list(lams), "channel strength")
    linop.reject_pure_corner(rs.max(initial=0.0), lams)  # the largest r, not an r-lam mesh
    return rs, lams


def _cells(n: int, m: int, rs: np.ndarray, lam: np.ndarray):
    """H_ind, H_corr and gain at each (lam, r) of a checked r row and lam column, for
    qfi and sweep alike: the closed forms for r in (0, 1), their limits at r = 0 and 1."""
    from . import protocol, qfi

    inner, zero, one = (rs > 0.0) & (rs < 1.0), rs == 0.0, rs == 1.0
    h_ind = qfi.qfi_independent_opt(rs, lam, m)
    h_corr, g = np.zeros(h_ind.shape), np.empty(h_ind.shape)
    if inner.any():
        h_corr[:, inner], g[:, inner] = protocol.qfi_and_gain(n, m, rs[inner], lam)
    if zero.any():
        g[:, zero] = protocol.gain_limit_r0(n, m, lam)
    if one.any():
        g[:, one] = protocol.gain_limit_r1(m, lam)
        h_corr[:, one] = g[:, one] * h_ind[:, one]
    return h_ind, h_corr, g


def sweep_rows(
    n: int, m: int, lams: Iterable[float], rs: Iterable[float]
) -> Iterator[str]:
    """The CSV text of the grid, one block at a time, channel-strength-major
    then polarization, one LF-terminated row per grid point.

    The whole grid is checked at the call. The (lam, r) mesh is evaluated in
    blocks of whole strength rows, at most 1024 cells each (one row if a row
    alone is larger): _cells, and for n = 2 the closed-form discord and
    partial-transpose eigenvalue (empty at r = 1), once per block. A block
    bounds the j-sum's (ceil(n/2), cells) temporaries, and each block's text
    is yielded before the next block is evaluated.
    """
    from . import correlations

    rs, lams = _checked_axes(n, m, rs, lams)
    below_one = rs < 1.0
    diagnosed = n == 2 and below_one.any()
    # One %-template per polarization. With correlation columns every cell
    # takes six values; "%.0s" prints the three of an r = 1 cell as empty.
    if diagnosed:
        tails = [f"{_FLOAT},{_FLOAT},%s" if b else "%.0s,%.0s,%.0s" for b in below_one.tolist()]
    else:
        tails = [",,"] * len(rs)
    # A strength row is every polarization's template joined, split where
    # the strength goes, so the strength is formatted once per row.
    pieces = "".join(
        f"{n},{m},{_fmt(r)},|,{_FLOAT},{_FLOAT},{_FLOAT},{tail}\n"
        for r, tail in zip(rs.tolist(), tails)
    ).split("|")
    rows_per_block = max(1, _BLOCK_CELLS // max(1, len(rs)))

    def block(lam: np.ndarray) -> str:
        h_ind, h_corr, g = _cells(n, m, rs, lam)
        if diagnosed:
            # an object array, so the separable verdict's text fits beside the floats
            values = np.zeros(h_ind.shape + (6,), dtype=object)
            r_diag = rs[below_one]
            values[:, below_one, 3] = correlations.discord_protocol(r_diag, lam, m)
            sep, values[:, below_one, 4] = correlations.ppt_closed_form(r_diag, lam, m)
            values[:, below_one, 5] = np.where(sep, "true", "false")
        else:
            values = np.empty(h_ind.shape + (3,))
        values[..., 0], values[..., 1], values[..., 2] = h_ind, h_corr, g
        rows = values.reshape(len(lam), -1).tolist()
        return "".join(
            _fmt(x).join(pieces) % tuple(row) for x, row in zip(lam[:, 0].tolist(), rows)
        )

    return (
        block(lams[start : start + rows_per_block, None])
        for start in range(0, len(lams), rows_per_block)
    )


def _cmd_qfi(args) -> int:
    from . import qfi

    rs, lams = _checked_axes(args.n, args.m, [args.r], [args.lam])
    h_ind, h_corr, g = (float(v[0, 0]) for v in _cells(args.n, args.m, rs, lams[:, None]))
    # Each value must be a normal float64, or a zero the closed forms make exact:
    # both informations at r = 0, and H_corr and the gain where nu = 0 takes the
    # power m - 1 >= 1. Exit 2 on inf, a subnormal, NaN or any other 0.
    half = args.lam == 0.5 and args.m > 1
    fields = (("H_ind", h_ind, args.r == 0.0), ("H_corr", h_corr, args.r == 0.0 or half),
              ("gain", g, half))
    for name, v, exact_zero in fields:
        if not (sys.float_info.min <= v < math.inf or v == 0.0 and exact_zero):
            raise ValueError(f"{name} at r = {args.r:g} lies outside the float64 range")
    bound = qfi.qfi_upper_bound(args.lam, args.m)
    print(
        f"n={args.n} m={args.m} r={_fmt(args.r)} lambda={_fmt(args.lam)} "
        f"H_ind={_fmt(h_ind)} H_corr={_fmt(h_corr)} gain={_fmt(g)} bound={_fmt(bound)}"
    )
    return 0


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """The CSV file for path, open for writing. It is a new file beside
    path, moved over path when the with block ends without an error, so a
    command that fails or is interrupted leaves path as it was.

    A path that exists and is not a regular file (a device such as
    /dev/null, a pipe, a directory) has nothing to replace and is opened
    in place. A regular file that is the same file as descriptor 1 (say
    /dev/stdout, with stdout redirected to a file) is written through
    sys.stdout, ahead of the command's own line: replacing it would take
    the shell's file away, and a second open would write over it from an
    offset of its own. A symbolic link to a file keeps the link: its target
    is replaced. The file is made by open(), in a private directory that is
    removed on any exit, so it gets the mode open(path, "w") gives.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        # a path with no file name ("", "dir/") gets open()'s own error
        in_place = not os.path.basename(path)
    else:
        in_place = not stat.S_ISREG(st.st_mode)
        try:
            own_stdout = not in_place and os.path.samestat(st, os.fstat(1))
        except OSError:  # descriptor 1 is closed
            own_stdout = False
        if own_stdout:
            yield sys.stdout
            return
    if in_place:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    try:
        staging = tempfile.TemporaryDirectory(dir=os.path.dirname(target), prefix=".paulifish-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    with staging as folder:
        part = os.path.join(folder, os.path.basename(target))
        with open(part, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(part, target)


def _cmd_sweep(args) -> int:
    lam_axis = (args.lambda_min, args.lambda_max, args.lambda_step)
    r_axis = (args.r_min, args.r_max, args.r_step)
    size = _grid_size(*lam_axis) * _grid_size(*r_axis)
    if size > MAX_SWEEP_ROWS:
        raise ValueError(f"the grid has {size} rows, more than {MAX_SWEEP_ROWS}")
    # evaluated lazily, but the whole grid is checked here, before --out is opened
    rows = sweep_rows(args.n, args.m, _grid(*lam_axis), _grid(*r_axis))
    with _replacing(args.out) as fh:
        fh.write(CSV_HEADER + "\n")
        for text in rows:
            fh.write(text)
    print(f"wrote {size} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suites(args.suite, n_max=args.n_max)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name:<20} max_err={res.max_error:.3e} ({res.detail})")
    return 0 if all(res.passed for res in results) else 1


def _cmd_mc(args) -> int:
    from . import mc

    cfg = mc.ExperimentConfig(
        r=args.r,
        lambda_true=args.lam,
        m=args.m,
        trials=args.trials,
        shots_per_trial=args.shots,
        seed=args.seed,
    )
    # --out is opened before any trial is drawn
    with contextlib.nullcontext() if args.out is None else _replacing(args.out) as fh:
        result = mc.run_experiment(cfg)
        if fh is not None:
            fh.write("trial,lambda_hat\n")
            estimates = result.estimates
            for start in range(0, estimates.size, mc._BLOCK_TRIALS):
                block = estimates[start : start + mc._BLOCK_TRIALS].tolist()
                # one % per block, on the trial numbers and estimates interleaved
                cells = block * 2
                cells[0::2], cells[1::2] = range(start, start + len(block)), block
                fh.write(f"%d,{_FLOAT}\n" * len(block) % tuple(cells))
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

    p_qfi = sub.add_parser(
        "qfi",
        help="evaluate one parameter point",
        description="Every printed value but the bound must be a normal float64 or an "
        "exact zero, at every r: otherwise qfi exits 2 with a message naming the field. "
        "Only the bound prints inf (at lambda 0, 1 or subnormal).",
    )
    p_qfi.add_argument("--n", type=int, required=True, help="number of qubits (>= 2)")
    p_qfi.add_argument("--m", type=int, required=True, help="channel invocations (1..n)")
    p_qfi.add_argument(
        "--r", type=float, required=True, help="polarization in [0, 1]; 0 and 1 give limits"
    )
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
            "report the analytic gain limits, except r=1 with lambda 0 or 1, "
            "where the gain has none: such a grid exits 2 before any row."
        ),
    )
    p_sweep.add_argument("--n", type=int, default=2, help="number of qubits, 2..64")
    p_sweep.add_argument("--m", type=int, default=1, help="channel invocations, 1..n")
    p_sweep.add_argument(
        "--lambda-min", type=float, default=0.05, help="first channel strength, in [0, 1]"
    )
    p_sweep.add_argument(
        "--lambda-max", type=float, default=0.95, help="last channel strength, in [0, 1]"
    )
    p_sweep.add_argument(
        "--lambda-step", type=float, default=0.05, help="channel-strength step, finite and > 0"
    )
    p_sweep.add_argument(
        "--r-min", type=float, default=0.0, help="first polarization, in [0, 1]; 0 gives the limit"
    )
    p_sweep.add_argument(
        "--r-max",
        type=float,
        default=1.0,
        help="last polarization, in [0, 1]; 1 gives the limit, except at lambda 0 or 1",
    )
    p_sweep.add_argument(
        "--r-step",
        type=float,
        default=0.05,
        help="polarization step, finite and > 0; the grid holds at most 10**7 rows",
    )
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify",
        help="run the invariant suites; exit 0 only if every suite passes",
    )
    p_verify.add_argument("--suite", help="run a single suite; an unknown name lists them")
    p_verify.add_argument(
        "--n-max", type=int, default=5, help="qubit cap for the oracle/bounds suites"
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_mc = sub.add_parser(
        "mc", help="Monte Carlo Cramér-Rao experiment for the independent protocol"
    )
    p_mc.add_argument("--r", type=float, required=True, help="polarization, in (0, 1]")
    p_mc.add_argument(
        "--lambda", dest="lam", type=float, required=True, help="true channel strength, in (0, 1)"
    )
    p_mc.add_argument(
        "--m",
        type=int,
        default=1,
        help="channel uses per shot, >= 1; it multiplies the binomial draws per trial "
        "(draws = shots * m)",
    )
    p_mc.add_argument(
        "--shots", type=int, default=100_000, help="shots per trial, >= 1; shots * m <= 2**63 - 1"
    )
    p_mc.add_argument("--trials", type=int, default=200, help="number of trials, 1..10**7")
    p_mc.add_argument("--seed", type=int, default=0, help="seed of the trial streams, >= 0")
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


def run() -> int:
    """main() on the process's own arguments, for a process that ends with
    it: the collector is frozen once main is done (see the module
    docstring), on any exit, argparse's SystemExit included."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
