"""Benchmark of the paulifish command line.

    python3 benchmarks/run.py --workload sweep-pair --seed 1 --seconds 25 --trace 0

With ``--trace 0`` each operation is one CLI command run as a user types
it, in a fresh interpreter on this checkout's ``src/``; the run reports the
end-to-end metrics. With ``--trace 1`` the commands run in this process with
every layer wrapped (see ``tracing.py``) and the run reports the per-layer
metrics. Either way every command's output is checked (``checks.py``)
outside the timed region. The last line of stdout is the JSON result; the
lines before it give each metric's quartiles and sample count and the run
context. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# mpmath (in checks) and numpy (in tracing) are imported only after the last
# command is spawned: a child's ru_maxrss starts from this process's peak
# resident size, so this process stays small while it spawns commands.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PY = sys.executable

SWEEP_GRID = ["--lambda-min", "0.0005", "--lambda-max", "0.9995", "--lambda-step", "0.001"]
MC_TRIALS = 20_000

#: Set-up samples wanted per untraced run, spread between the commands.
SETUP_SAMPLES = 10

#: A command that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 120.0

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]
SETUP_CODE = "import paulifish.cli"

#: A fixed task that does not touch paulifish, with the workloads' mix:
#: interpreter start, numpy import, a Python loop and small eigensolves.
#: It runs right before each command, and each command's times are taken
#: relative to it, which cancels the drift in speed of a shared machine.
REFERENCE_CODE = """
import numpy as np
s = 0
for i in range(400000):
    s += i * i % 7
a = np.random.default_rng(0).random((32, 32))
for _ in range(300):
    np.linalg.eigvalsh(a + a.T)
"""

#: The reference's median wall seconds on the machine the bounds were set
#: on (2 cores, Python 3.11, numpy 2.4); it turns the ratios back into
#: seconds.
REFERENCE_WALL_S = 0.30


@dataclass(frozen=True)
class Workload:
    why: str
    args: Callable[[int, str], list[str]]  # (seed, output path) -> CLI arguments
    checker: Callable[[int], object]  # seed -> a checker from checks.py
    writes_file: bool = True


SWEEP_LAMS = checks.grid(0.0005, 0.9995, 0.001)
SWEEP_RS = checks.grid(0.0, 1.0, 0.05)  # the CLI's default polarization grid


def _sweep(n: int, m: int, why: str) -> Workload:
    return Workload(
        why=why,
        args=lambda seed, out: ["sweep", "--n", str(n), "--m", str(m), *SWEEP_GRID, "--out", out],
        checker=lambda seed: checks.SweepCheck(n, m, SWEEP_LAMS, SWEEP_RS, seed),
    )


WORKLOADS = {
    "sweep-pair": _sweep(
        2, 1, "two-qubit surface: dense 4x4 PPT and discord diagnostics on every row, 3-term j-sum"
    ),
    "sweep-multi": _sweep(
        5, 3, "multi-qubit surface: the j-sum kernel runs twice per row, no two-qubit diagnostics"
    ),
    "verify-n6": Workload(
        why="all 8 invariant suites; dense eigendecomposition oracle up to 64x64",
        args=lambda seed, out: ["verify", "--n-max", "6"],
        checker=lambda seed: checks.VerifyCheck(),
        writes_file=False,
    ),
    "mc": Workload(
        why="Monte Carlo: one Philox stream per trial and a 20 000-line trial CSV",
        args=lambda seed, out: [
            "mc", "--r", "0.8", "--lambda", "0.3", "--shots", "100000",
            "--trials", str(MC_TRIALS), "--seed", str(seed), "--out", out,
        ],
        checker=lambda seed: checks.McCheck(MC_TRIALS),
    ),
}


def describe(label: str, values: list[float], unit: str = "") -> float:
    """Print a sample's median, quartiles and count; return the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    print(f"{label:<24} median={med:.6g} q1={q1:.6g} q3={q3:.6g} {unit} n={len(values)}")
    return med


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def spawn(argv: list[str], cwd: Path, env: dict) -> Sample:
    """Run one command to exit; wall time from spawn to reaping, rusage of
    the child from wait4."""
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
        out.seek(0)
        stdout = out.read().decode()
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=stdout,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def untraced_run(wl: Workload, seed: int, seconds: float, work: Path, commands: list) -> tuple:
    env = child_env()
    argv = [PY, "-m", "paulifish.cli", *wl.args(seed, str(work / "out.csv"))]
    setup_argv = [PY, "-c", SETUP_CODE]
    reference_argv = [PY, "-c", REFERENCE_CODE]
    commands += [reference_argv, setup_argv, argv]
    # untimed: proves the children import this checkout and writes its bytecode
    probe = spawn([PY, "-c", SETUP_CODE + "; print(paulifish.cli.__file__)"], work, env)
    imported = Path(probe.stdout.strip()).resolve()
    if probe.returncode != 0 or imported != SRC / "paulifish" / "cli.py":
        raise SystemExit(f"error: children do not import this checkout's src/: {probe.stdout!r}")
    raw: dict[str, list[float]] = {k: [] for k in ("reference_s", "wall_s", "cpu_s", "setup_s")}
    values: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
    outputs: list[tuple[int, str, Path | None]] = []
    setups_per_command = 1
    start = time.perf_counter()
    while True:
        ref = spawn(reference_argv, work, env)
        raw["reference_s"].append(ref.wall_s)
        for _ in range(setups_per_command):
            setup = spawn(setup_argv, work, env).wall_s
            raw["setup_s"].append(setup)
            values["setup_s"].append(REFERENCE_WALL_S * setup / ref.wall_s)
        s = spawn(argv, work, env)
        raw["wall_s"].append(s.wall_s)
        raw["cpu_s"].append(s.cpu_s)
        values["wall_s"].append(REFERENCE_WALL_S * s.wall_s / ref.wall_s)
        values["cpu_s"].append(REFERENCE_WALL_S * s.cpu_s / ref.wall_s)
        values["peak_rss_mb"].append(s.peak_rss_mb)
        kept = None
        if wl.writes_file:  # each command's output is kept for the checks
            kept = work / f"out-{len(outputs)}.csv"
            with contextlib.suppress(FileNotFoundError):
                (work / "out.csv").rename(kept)
        outputs.append((s.returncode, s.stdout, kept))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if len(outputs) == 1:
            expected_commands = max(1.0, seconds / elapsed)
            setups_per_command = math.ceil(SETUP_SAMPLES / expected_commands)
    failed = check_outputs(wl.checker(seed), outputs)
    summary = {
        name: {"value": describe(name, values[name], unit), "unit": unit} for name, unit in END_TO_END
    }
    print(f"failed_frac {failed / len(outputs):.6g} ({failed} of {len(outputs)} commands)")
    for name, vals in raw.items():
        describe(f"as timed: {name}", vals, "s")
    return summary, len(outputs), failed, True


def check_outputs(checker, outputs: list[tuple[int, str, Path | None]], first: int = 1) -> int:
    """Check each command's output in order; returns the number that failed."""
    failed = 0
    for k, (returncode, stdout, path) in enumerate(outputs, first):
        problems = checker.check(returncode, stdout, path)
        if problems:
            failed += 1
            print(f"command {k} failed: {'; '.join(problems[:5])}", file=sys.stderr)
    return failed


def traced_run(wl: Workload, seed: int, seconds: float, work: Path, commands: list) -> tuple:
    import tracing

    sys.path.insert(0, str(SRC))
    import paulifish.cli

    if Path(paulifish.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported {paulifish.cli.__file__}, not this checkout's src/")
    out = work / "out.csv"
    args = wl.args(seed, str(out))
    commands.append(["paulifish.cli.main", *args])
    checker = wl.checker(seed)
    walls: dict[bool, list[float]] = {False: [], True: []}
    samples: list[dict[str, float]] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            tracer = tracing.Tracer()
            buf = io.StringIO()
            out.unlink(missing_ok=True)
            with contextlib.redirect_stdout(buf), (tracer if traced else contextlib.nullcontext()):
                t0 = time.perf_counter()
                try:
                    rc = sys.modules["paulifish.cli"].main(args)
                except Exception:  # a crash is a failed command, as in a child
                    traceback.print_exc()
                    rc = None
                walls[traced].append(time.perf_counter() - t0)
            attempted += 1
            output = out if wl.writes_file else None
            failed += check_outputs(checker, [(rc, buf.getvalue(), output)], attempted)
            if traced:
                facts = checker.facts()
                facts["out_bytes"] = len(buf.getvalue().encode()) + (
                    output.stat().st_size if output and output.exists() else 0
                )
                samples.append(tracing.layer_metrics(tracer, facts))
        if time.perf_counter() - start >= seconds and len(samples) >= 2:
            break
    units = dict(tracing.PER_LAYER)
    counts = [{k: v for k, v in s.items() if units[k] not in tracing.TIMED_UNITS} for s in samples]
    repeat = all(c == counts[0] for c in counts)
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead_frac":
            value = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        elif unit in tracing.TIMED_UNITS:
            value = statistics.median(s[name] for s in samples)
        else:
            value = counts[0][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<42} {value:.6g} {unit}")
    describe("untraced in-process wall", walls[False], "s")
    describe("traced in-process wall", walls[True], "s")
    print(f"counts repeat exactly across {len(samples)} traced runs: {repeat}")
    return metrics, attempted, failed, repeat


def run_context(args, commands: list) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "paulifish").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            git = ["git", "-C", str(ROOT), "rev-parse", "HEAD"]
            git_sha = subprocess.run(git, capture_output=True, text=True, check=True).stdout.strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(numpy),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "commands": [shlex.join(c) for c in commands],
    }


def blas_threads(numpy) -> int | str:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its command and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "paulifish" / "cli.py").is_file():
        print(f"error: no paulifish sources under {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    commands: list[list[str]] = []
    try:
        run = traced_run if args.trace else untraced_run
        metrics, attempted, failed, counts_repeat = run(
            WORKLOADS[args.workload], args.seed, args.seconds, work, commands
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("context " + json.dumps(run_context(args, commands)))
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
