"""Output checks for the benchmark workloads.

Every check runs outside the timed region and returns a list of problems;
an empty list means the command's output is correct. Reference values come
from an independent 80-digit ``mpmath`` evaluation of the closed forms, not
from the package under test.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

#: The documented sweep header (README, "Command line").
CSV_HEADER = "n,m,r,lambda,H_ind,H_corr,gain,discord,min_pt_eig,separable"

#: Relative tolerance on H_ind, H_corr and gain; the CSV keeps 12 digits.
REL_TOL = 1e-9

#: Absolute tolerance on discord and min_pt_eig, both O(1) quantities.
ABS_TOL = 1e-10

#: Rows whose polarization lies this close to the separability threshold
#: are not held to a verdict: the program's PPT tolerance decides them.
SEP_MARGIN = 1e-9

#: Sweep rows checked against mpmath per run, picked by the seed.
SAMPLED_ROWS = 32

#: Standard deviations of the chi-square band on the mc variance ratio.
CHI2_Z = 6.0


def fmt(x: float) -> str:
    """The CLI's number format: 12 significant digits."""
    return f"{x:.12g}"


def grid(lo: float, hi: float, step: float) -> list[float]:
    """Grid points as the documented sweep produces them: lo + k*step."""
    count = int((hi - lo) / step + 1e-9) + 1
    return [lo + k * step for k in range(count)]


def reference_row(n: int, m: int, r: float, lam: float) -> dict:
    """Closed forms for one sweep row at 80 digits.

    H_ind = 4 r^2 m / (1 - nu r^2) with nu = (1-2 lam)^2, the correlated
    j-sum for H_corr, gain = H_corr / H_ind, and the documented r = 0 and
    r = 1 limits. For n = 2 also the discord closed form, the minimum
    partial-transpose eigenvalue (1 - r^2 - 2 r |mu|)/4 with mu = (1-2 lam)^m,
    and the separability threshold sqrt(mu^2 + 1) - |mu|.
    """
    import mpmath  # imported on first use, see run.py

    with mpmath.workdps(80):
        r_, lam_ = mpmath.mpf(r), mpmath.mpf(lam)
        nu = (1 - 2 * lam_) ** 2
        ref = {}
        if r == 0.0:
            ref.update(H_ind=mpmath.mpf(0), H_corr=mpmath.mpf(0), gain=m * n * nu ** (m - 1))
        else:
            h_ind = 4 * r_**2 * m / (1 - nu * r_**2)
            if r == 1.0:
                g = mpmath.mpf(1) if m == 1 else m * nu ** (m - 1) * (1 - nu) / (1 - nu**m)
                h_corr = g * h_ind
            else:
                s = mpmath.mpf(0)
                for j in range(n + 1):
                    a = (1 + r_) ** j * (1 - r_) ** (n - j)
                    b = (1 + r_) ** (n - j) * (1 - r_) ** j
                    d, t = a - b, a + b
                    s += mpmath.binomial(n, j) * d**2 * t / (t**2 - nu**m * d**2)
                h_corr = m**2 * nu ** (m - 1) / mpmath.mpf(2) ** (n - 1) * s
                g = h_corr / h_ind
            ref.update(H_ind=h_ind, H_corr=h_corr, gain=g)
        if n == 2 and r < 1.0:
            am = abs((1 - 2 * lam_) ** m)
            c = max(r_**2, r_ * am)
            spectrum = (1 - r_**2, 1 + 2 * r_ * am + r_**2, 1 - 2 * r_ * am + r_**2, 1 - r_**2)
            q = sum(v * mpmath.log(v, 2) for v in spectrum if v > 0) / 4
            q -= (1 - c) * mpmath.log(1 - c, 2) / 2 if c < 1 else 0
            q -= (1 + c) * mpmath.log(1 + c, 2) / 2
            ref.update(
                discord=q,
                min_pt_eig=(1 - r_**2 - 2 * r_ * am) / 4,
                threshold=mpmath.sqrt(am**2 + 1) - am,
            )
        return ref


@dataclass
class SweepCheck:
    """Header, row count, strength-major order and sampled closed forms."""

    n: int
    m: int
    lams: list[float]
    rs: list[float]
    seed: int
    sampled: list[int] = field(init=False)
    refs: dict[int, dict] = field(init=False)
    max_rel_err: float = 0.0
    interior_rows: int = 0
    diagnosed_rows: int = 0

    def __post_init__(self):
        total = len(self.lams) * len(self.rs)
        self.sampled = sorted(random.Random(self.seed).sample(range(total), SAMPLED_ROWS))
        self.refs = {i: reference_row(self.n, self.m, *self._point(i)) for i in self.sampled}

    def _point(self, i: int) -> tuple[float, float]:
        return self.rs[i % len(self.rs)], self.lams[i // len(self.rs)]

    def check(self, returncode: int, stdout: str, out_path: Path) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        if not out_path.is_file():
            return ["no output file"]
        lines = out_path.read_text(encoding="utf-8").split("\n")
        if lines[-1] != "":
            return ["output does not end with a newline"]
        header, rows = lines[0], lines[1:-1]
        problems = []
        if header != CSV_HEADER:
            problems.append(f"header {header!r}")
        expected = len(self.lams) * len(self.rs)
        if len(rows) != expected:
            return problems + [f"{len(rows)} rows, expected {expected}"]
        lead = f"{self.n},{self.m},"
        interior = diagnosed = 0
        for i, row in enumerate(rows):
            r, lam = self._point(i)
            if not row.startswith(f"{lead}{fmt(r)},{fmt(lam)},"):
                return problems + [f"row {i} out of strength-major order: {row[:40]!r}"]
            interior += 0.0 < r < 1.0
            diagnosed += not row.endswith(",,,")
        self.interior_rows, self.diagnosed_rows = interior, diagnosed
        for i in self.sampled:
            try:
                problems += self._check_row(i, rows[i].split(","))
            except (ValueError, IndexError):
                problems.append(f"row {i} malformed: {rows[i]!r}")
        return problems

    def _check_row(self, i: int, cols: list[str]) -> list[str]:
        from mpmath import nstr

        ref = self.refs[i]
        problems = []
        for k, name in ((4, "H_ind"), (5, "H_corr"), (6, "gain")):
            got, want = float(cols[k]), ref[name]
            err = float(abs(got - want) / abs(want)) if want != 0 else abs(got)
            self.max_rel_err = max(self.max_rel_err, err)
            if not err <= REL_TOL:
                problems.append(f"row {i} {name}={cols[k]}, reference {nstr(want, 15)}")
        if "discord" not in ref:
            if cols[7:] != ["", "", ""]:
                problems.append(f"row {i} fills correlation columns {cols[7:]}")
            return problems
        for k, name in ((7, "discord"), (8, "min_pt_eig")):
            if not abs(float(cols[k]) - ref[name]) <= ABS_TOL:
                problems.append(f"row {i} {name}={cols[k]}, reference {nstr(ref[name], 15)}")
        r = self._point(i)[0]
        if abs(r - ref["threshold"]) > SEP_MARGIN:
            want = "true" if r < ref["threshold"] else "false"
            if cols[9] != want:
                problems.append(f"row {i} separable={cols[9]}, threshold says {want}")
        return problems

    def facts(self) -> dict:
        return {
            "interior_rows": self.interior_rows,
            "diagnosed_rows": self.diagnosed_rows,
            "max_rel_err": self.max_rel_err,
        }


class VerifyCheck:
    """Exit code 0 and one PASS line for each of the 8 suites."""

    suites = 8

    def check(self, returncode: int, stdout: str, out_path: Path | None) -> list[str]:
        lines = stdout.splitlines()
        passes = [line for line in lines if line.startswith("PASS ")]
        problems = [] if returncode == 0 else [f"exit code {returncode}"]
        if len(passes) != self.suites or len(lines) != self.suites:
            problems.append(f"{len(passes)} PASS lines in {stdout!r}")
        return problems

    def facts(self) -> dict:
        return {}


@dataclass
class McCheck:
    """Byte-identical stdout and trial CSV across runs of one seed, and the
    variance ratio inside a chi-square band.

    The estimator is linear in the fraction of + outcomes, so its variance
    equals the Cramér-Rao bound and (trials-1) * ratio is chi-square with
    trials-1 degrees of freedom. The band is that distribution's
    Wilson-Hilferty quantile at CHI2_Z standard deviations on each side,
    which a correct program leaves with probability about 2e-9.
    """

    trials: int
    reference: tuple[str, bytes] | None = None
    clamped: int = 0

    def band(self) -> tuple[float, float]:
        k = self.trials - 1
        h = CHI2_Z * math.sqrt(2.0 / (9.0 * k))
        return (1.0 - 2.0 / (9.0 * k) - h) ** 3, (1.0 - 2.0 / (9.0 * k) + h) ** 3

    def check(self, returncode: int, stdout: str, out_path: Path) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        if not out_path.is_file():
            return ["no output file"]
        data = out_path.read_bytes()
        problems = []
        if self.reference is None:
            self.reference = (stdout, data)
        elif (stdout, data) != self.reference:
            problems.append("output differs from the first run with the same seed")
        lines = data.count(b"\n")
        if lines != self.trials + 1 or not data.startswith(b"trial,lambda_hat\n"):
            problems.append(f"trial CSV has {lines} lines")
        fields = dict(re.findall(r"(\w+)=(\S+)", stdout))
        try:
            ratio, self.clamped = float(fields["ratio"]), int(fields["clamped"])
        except (KeyError, ValueError):
            return problems + [f"no ratio and clamped count in {stdout!r}"]
        lo, hi = self.band()
        if not lo <= ratio <= hi:
            problems.append(f"ratio {ratio} outside the chi-square band [{lo:.4f}, {hi:.4f}]")
        return problems

    def facts(self) -> dict:
        return {"trials": self.trials, "clamped": self.clamped}
