import argparse
import contextlib
import csv
import errno
import gc
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import child_env, run_child
from paulifish import channels, cli, correlations, mc, protocol, qfi, verify


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_recording_warnings(args, capsys):
    """run_cli, plus every warning raised during the run (numpy's floating
    point warnings reach a user's stderr through the warnings module)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(args, capsys)
    return code, out, err, [str(w.message) for w in caught]


def parse_fields(line):
    return dict(part.split("=", 1) for part in line.split())


class SpyFile:
    """A file opened by the command, whose every write calls on_write(text) first."""

    def __init__(self, fh, on_write):
        self.fh, self.on_write = fh, on_write

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.on_write(text)
        return self.fh.write(text)


class TestQfiCommand:
    def test_anchor_point(self, capsys):
        code, out, _ = run_cli(
            ["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.5"], capsys
        )
        assert code == 0
        fields = parse_fields(out.strip())
        assert float(fields["gain"]) == pytest.approx(1.6, rel=1e-10)
        assert float(fields["bound"]) == pytest.approx(4.0, rel=1e-10)

    def test_subnormal_strength_warns_nothing(self, capsys):
        # m / (lam (1-lam)) overflows to an infinite bound below lam of about 5.6e-309
        code, out, err, caught = run_cli_recording_warnings(
            ["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "1e-310"], capsys
        )
        assert (code, err, caught) == (0, "", [])
        assert parse_fields(out.strip())["bound"] == "inf"

    def test_wrapper_matches_library(self, capsys):
        args = ["qfi", "--n", "3", "--m", "2", "--r", "0.3", "--lambda", "0.2"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        fields = parse_fields(out.strip())
        assert fields["H_ind"] == cli._fmt(qfi.qfi_independent_opt(0.3, 0.2, 2))
        assert fields["H_corr"] == cli._fmt(protocol.qfi_correlated(3, 2, 0.3, 0.2))
        assert fields["gain"] == cli._fmt(protocol.gain(3, 2, 0.3, 0.2))

    @pytest.mark.parametrize(
        "n, m, r, lam",
        [
            (2, 2, "0", "0.3"),
            (2, 2, "0.5", "0.3"),
            (2, 2, "1", "0.3"),
            (64, 64, "0.42174797787009743", "0.3518427835974599"),
        ],
    )
    def test_fields_are_the_sweep_row(self, n, m, r, lam, tmp_path, capsys):
        # the sweep's r grid runs on past the cell where it can, as a wider grid
        out_path = tmp_path / "cell.csv"
        code, _, err = run_cli(
            ["sweep", "--n", str(n), "--m", str(m), "--r-min", r, "--r-max", "1",
             "--r-step", "0.4", "--lambda-min", lam, "--lambda-max", lam,
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0, err
        with open(out_path) as fh:
            row = next(csv.DictReader(fh))
        code, out, err = run_cli(
            ["qfi", "--n", str(n), "--m", str(m), "--r", r, "--lambda", lam], capsys
        )
        assert (code, err) == (0, "")
        fields = parse_fields(out.strip())
        assert [fields[k] for k in ("r", "lambda")] == [row["r"], row["lambda"]]
        for column in ("H_ind", "H_corr", "gain"):
            assert fields[column] == row[column], column


    def test_near_pure_many_qubits_matches_reference(self, capsys):
        # (1-r)**n and (1-r**2)**n underflow here; the log-domain kernel does not
        from conftest import mp_correlated_reference

        n, m, r, lam = 40, 1, 0.999999999, 0.1
        code, out, err = run_cli(
            ["qfi", "--n", str(n), "--m", str(m), "--r", str(r), "--lambda", str(lam)],
            capsys,
        )
        assert code == 0, err
        fields = parse_fields(out.strip())
        h_ref, g_ref = mp_correlated_reference(n, r, [m], [lam])[m, lam]
        assert float(fields["H_corr"]) == pytest.approx(float(h_ref), rel=1e-10)
        assert float(fields["gain"]) == pytest.approx(float(g_ref), rel=1e-10)
        assert float(fields["H_ind"]) == pytest.approx(float(h_ref / g_ref), rel=1e-10)

    def test_mixed_state_next_to_the_pure_corner_exits_0(self, capsys):
        # r = 1 - 5e-13 at lam = 0 is mixed, and the closed forms hold there
        code, out, err = run_cli(
            ["qfi", "--n", "2", "--m", "1", "--r", "0.9999999999995", "--lambda", "0"], capsys
        )
        assert (code, err) == (0, "")
        fields = parse_fields(out.strip())
        assert fields["H_ind"] == cli._fmt(qfi.qfi_independent_opt(0.9999999999995, 0.0, 1))
        assert fields["bound"] == "inf"

    def test_cell_is_evaluated_once(self, monkeypatch, capsys):
        # the range rule reads the printed values, so the j-sum runs for the
        # cell alone and not again to raise
        calls, real = [], protocol._log_qfi_gain

        def spy(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(protocol, "_log_qfi_gain", spy)
        code, _, err = run_cli(
            ["qfi", "--n", "3", "--m", "2", "--r", "0.3", "--lambda", "0.2"], capsys
        )
        assert (code, err, calls) == (0, "", [(3, 2)])

    @pytest.mark.parametrize("r", ["0", "0.4", "1"])
    def test_exact_zeros_exit_0(self, r, capsys):
        # nu = 0 at lam = 1/2 takes the power m - 1 = 1 in H_corr and the
        # gain, and H_ind vanishes at r = 0 alone
        code, out, err = run_cli(
            ["qfi", "--n", "3", "--m", "2", "--r", r, "--lambda", "0.5"], capsys
        )
        assert (code, err) == (0, "")
        fields = parse_fields(out.strip())
        assert (fields["H_corr"], fields["gain"]) == ("0", "0")
        assert (fields["H_ind"] == "0") == (r == "0")


class TestSweepCommand:
    def test_header_order_and_shape(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["sweep", "--out", str(out_path)], capsys)
        assert code == 0
        text = out_path.read_text()
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 19 * 21  # default windows
        lams = [float(line.split(",")[3]) for line in lines[1:]]
        rs = [float(line.split(",")[2]) for line in lines[1:]]
        assert lams == sorted(lams)  # strength-major ordering
        assert rs[:21] == sorted(rs[:21])

    def test_round_trip_recomputes_every_derived_column(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--n", "2", "--m", "2", "--r-step", "0.1",
             "--lambda-step", "0.1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            n, m = int(row["n"]), int(row["m"])
            r, lam = float(row["r"]), float(row["lambda"])
            if r == 0.0:
                h_ind, h_corr = 0.0, 0.0
                g = protocol.gain_limit_r0(n, m, lam)
            elif r == 1.0:
                h_ind = qfi.qfi_independent_opt(1.0, lam, m)
                g = protocol.gain_limit_r1(m, lam)
                h_corr = g * h_ind
            else:
                h_ind = qfi.qfi_independent_opt(r, lam, m)
                h_corr = protocol.qfi_correlated(n, m, r, lam)
                g = protocol.gain(n, m, r, lam)
            assert float(row["H_ind"]) == pytest.approx(h_ind, rel=1e-9, abs=1e-12)
            assert float(row["H_corr"]) == pytest.approx(h_corr, rel=1e-9, abs=1e-12)
            assert float(row["gain"]) == pytest.approx(g, rel=1e-9, abs=1e-12)
            if r < 1.0:
                sep, min_eig = correlations.is_separable_ppt(
                    channels.correlated_state(2, r, lam, m)[0]
                )
                assert float(row["discord"]) == pytest.approx(
                    correlations.discord_protocol(r, lam, m), rel=1e-9, abs=1e-12
                )
                assert float(row["min_pt_eig"]) == pytest.approx(
                    min_eig, rel=1e-9, abs=1e-12
                )
                assert row["separable"] == ("true" if sep else "false")
            else:
                assert row["discord"] == ""
                assert row["min_pt_eig"] == ""
                assert row["separable"] == ""

    def test_repeat_gain_straddles_one(self, tmp_path, capsys):
        out_path = tmp_path / "n2m2.csv"
        run_cli(["sweep", "--n", "2", "--m", "2", "--out", str(out_path)], capsys)
        with open(out_path) as fh:
            gains = [float(row["gain"]) for row in csv.DictReader(fh)]
        assert any(g < 1.0 for g in gains)
        assert any(g > 1.0 for g in gains)

    def test_correlation_columns_empty_off_two_qubits(self, tmp_path, capsys):
        out_path = tmp_path / "n3.csv"
        run_cli(
            ["sweep", "--n", "3", "--r-step", "0.25", "--lambda-step", "0.25",
             "--out", str(out_path)],
            capsys,
        )
        with open(out_path) as fh:
            for row in csv.DictReader(fh):
                assert row["discord"] == ""
                assert row["min_pt_eig"] == ""
                assert row["separable"] == ""

    def test_two_qubit_sweep_builds_no_dense_state(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense route used in a sweep")

        monkeypatch.setattr(correlations, "is_separable_ppt", forbidden)
        monkeypatch.setattr(channels, "correlated_state", forbidden)
        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        out_path = tmp_path / "pair.csv"
        code, _, err = run_cli(["sweep", "--n", "2", "--m", "2", "--out", str(out_path)], capsys)
        assert code == 0, err
        assert len(out_path.read_text().splitlines()) == 1 + 19 * 21

    def test_half_strength_repeats_give_exact_zeros(self, tmp_path, capsys):
        out_path = tmp_path / "half.csv"
        code, _, _ = run_cli(
            ["sweep", "--n", "2", "--m", "2", "--lambda-min", "0.5", "--lambda-max", "0.5",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 21
        for row in rows:
            assert row["gain"] == "0"
            if 0.0 < float(row["r"]) < 1.0:
                assert row["H_corr"] == "0"

    def test_sweep_keeps_cells_below_float64_range(self, tmp_path, capsys):
        # near lam = 1/2 at n = m = 64 the true H_corr and gain fall below the
        # normal float64 range; the sweep writes them (0 or subnormal) and goes on
        from conftest import mp_correlated_reference

        out_path = tmp_path / "deep.csv"
        code, _, err = run_cli(
            ["sweep", "--n", "64", "--m", "64", "--lambda-min", "0.498",
             "--lambda-max", "0.5", "--lambda-step", "0.001", "--out", str(out_path)],
            capsys,
        )
        assert code == 0, err
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 21
        tiny = np.finfo(float).tiny
        below = 0
        for row in rows:
            r, lam = float(row["r"]), float(row["lambda"])
            if not 0.0 < r < 1.0:
                continue
            h_ref, g_ref = mp_correlated_reference(64, r, [64], [lam])[64, lam]
            for col, want in (("H_corr", h_ref), ("gain", g_ref)):
                got = float(row[col])
                if want < tiny:
                    assert 0.0 <= got < tiny, (col, r, lam, got)
                    below += 1
                else:
                    assert got == pytest.approx(float(want), rel=1e-10), (col, r, lam)
        assert below > 0

    @pytest.mark.parametrize(
        "args, rows",
        [
            # H is about 1e403 here
            (["--n", "64", "--m", "1", "--r-min", "0.999999", "--r-max", "0.999999",
              "--lambda-min", "0", "--lambda-max", "0"],
             "64,1,0.999999,0,1999996.99994,inf,inf,,,\n"),
            # at r = 1, H_ind = m / (lam (1-lam)) is about 1e310
            (["--n", "2", "--m", "1", "--r-min", "0.95", "--r-max", "1",
              "--lambda-min", "1e-310", "--lambda-max", "1e-310"],
             "2,1,0.95,1e-310,37.0256410256,1444.94937541,39.0256410256,0.831339068503,"
             "-0.450625,false\n2,1,1,1e-310,inf,inf,1,,,\n"),
        ],
        ids=["closed-form", "r-1-limit"],
    )
    def test_sweep_writes_cells_above_float64_range_as_inf_silently(self, args, rows, tmp_path):
        # numpy's overflow warning would print its source line on the user's stderr
        out_path = tmp_path / "huge.csv"
        done = run_child(["-m", "paulifish.cli", "sweep", *args, "--out", str(out_path)])
        assert (done.returncode, done.stderr) == (0, "")
        assert out_path.read_text() == f"{cli.CSV_HEADER}\n{rows}"

    def test_degenerate_range_writes_header_only(self, tmp_path, capsys):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run_cli(
            ["sweep", "--lambda-min", "0.9", "--lambda-max", "0.1",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out_path.read_text() == cli.CSV_HEADER + "\n"

    def test_output_is_byte_stable(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["sweep", "--out", str(a)], capsys)
        run_cli(["sweep", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "axis, extra", [("r", []), ("lambda", ["--r-max", "0.95"])], ids=["r", "lambda"]
    )
    def test_grid_ending_on_the_domain_edge_stays_inside(self, axis, extra, tmp_path, capsys):
        # 0.09 + 13 * 0.07 is 1.0000000000000002 in floats; the last point is
        # clipped to the upper bound 1 (lam = 1 at r = 1 is outside the domain)
        out_path = tmp_path / "edge.csv"
        code, _, err = run_cli(
            ["sweep", f"--{axis}-min", "0.09", f"--{axis}-max", "1.0", f"--{axis}-step", "0.07",
             *extra, "--out", str(out_path)],
            capsys,
        )
        assert (code, err) == (0, "")
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[-1][axis] == "1"

    BENCH_GRID = ["--lambda-min", "0.0005", "--lambda-max", "0.9995", "--lambda-step", "0.001"]

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["--m", "1"], "f7488329330915def928a3e19c28f711bb7ac4ccf2e36e326c1bf2e7a6881b20"),
            (["--m", "2"], "22b9fc51a529044460be58beb7db31af4f2e6f315c4eea9ba826f5cfcad23b92"),
            (
                ["--n", "2", "--m", "1", *BENCH_GRID],
                "13d431ce57232754993bf43675151bdfabe5d25169282db3b6890801a10f6f6f",
            ),
            (
                ["--n", "5", "--m", "3", *BENCH_GRID],
                "9c0d0ecc5fd078f8d3cbfb9666dd2a42dd6417be377d9d5cd26755cfa78a8f59",
            ),
            (
                ["--n", "64", "--m", "64", "--lambda-min", "0.498", "--lambda-max", "0.5",
                 "--lambda-step", "0.001"],
                "69469cbe9f4b97eec441482c82b970932981fbdb1d94cb20f2bf5b8cafc234d7",
            ),
            (
                ["--n", "3", "--m", "2", "--lambda-min", "0", "--lambda-max", "1",
                 "--lambda-step", "0.125", "--r-max", "0.95"],
                "6efa95f7374e6e495196d9457a8e4ef62cfdcc54a8376d4fc0bdd62675cef29c",
            ),
        ],
        ids=["default-m1", "default-m2", "bench-pair", "bench-multi", "deep-n64", "lambda-ends"],
    )
    def test_csv_digest_is_pinned(self, args, digest, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(["sweep", *args, "--out", str(out_path)], capsys)
        assert code == 0, err
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_cells_are_evaluated_in_blocks(self, tmp_path, capsys, monkeypatch):
        # 21 polarizations give 1024 // 21 = 48 strengths per block:
        # ceil(1000 / 48) = 21 calls per layer, none over 1024 cells
        cells = {"qfi_and_gain": [], "discord_protocol": []}
        # position of r in each signature; lam follows it
        spied = ((protocol, "qfi_and_gain", 2), (correlations, "discord_protocol", 0))
        for mod, name, at in spied:
            real = getattr(mod, name)

            def spy(*args, _real=real, _seen=cells[name], _at=at):
                _seen.append(np.broadcast(*map(np.asarray, args[_at : _at + 2])).size)
                return _real(*args)

            monkeypatch.setattr(mod, name, spy)
        out_path = tmp_path / "pair.csv"
        code, _, err = run_cli(
            ["sweep", "--n", "2", "--m", "1", *self.BENCH_GRID, "--out", str(out_path)], capsys
        )
        assert code == 0, err
        for seen in cells.values():
            assert len(seen) == 21
            assert max(seen) <= 1024

    @pytest.mark.parametrize("command", ["qfi", "sweep"])
    def test_pure_corner_exits_2_before_any_output(self, command):
        # the gain has no limit at r = 1, lam = 0: it is 1 along r = 1 and
        # unbounded along lam = 0. On a pipe --out /dev/stdout is written in
        # place, so a header written before the check would reach it
        ((argv, message),) = [(a, m) for _, a, m in REJECTED_ROWS
                              if a[0] == command and m.startswith("pure state")]
        out = ["--out", "/dev/stdout"] if command == "sweep" else []
        done = run_child(["-m", "paulifish.cli", *argv, *out])
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")

    def test_blocks_are_written_as_they_are_evaluated(self, tmp_path, capsys, monkeypatch):
        # 48 strengths of 21 polarizations per block: each block's text is
        # written, in one write, before the next block is evaluated
        events = []
        real_kernel = protocol.qfi_and_gain

        def kernel(*args):
            events.append(("evaluate", None))
            return real_kernel(*args)

        def write(text):
            events.append(("write", text.count("\n")))

        monkeypatch.setattr(protocol, "qfi_and_gain", kernel)
        monkeypatch.setattr(
            cli, "open", lambda *a, **k: SpyFile(open(*a, **k), write), raising=False
        )
        out_path = tmp_path / "pair.csv"
        code, _, err = run_cli(
            ["sweep", "--n", "2", "--m", "1", *self.BENCH_GRID, "--out", str(out_path)], capsys
        )
        assert code == 0, err
        blocks = [48 * 21] * 20 + [40 * 21]
        assert events == [("write", 1)] + [
            event for rows in blocks for event in (("evaluate", None), ("write", rows))
        ]
        assert len(out_path.read_text().splitlines()) == 1 + sum(blocks)

    # a small run of each command that writes a CSV to --out
    OUT_COMMANDS = {
        "sweep": ["sweep"],
        "mc": ["mc", "--r", "0.8", "--lambda", "0.3", "--trials", "10", "--seed", "7"],
    }

    @pytest.mark.parametrize("before", [None, b"kept\n"], ids=["absent", "existing"])
    @pytest.mark.parametrize("stop", [None, KeyboardInterrupt], ids=["error", "interrupt"])
    @pytest.mark.parametrize("command", ["sweep", "mc", "mc-experiment"])
    def test_failed_sweep_leaves_the_directory_as_it_was(
        self, command, before, stop, tmp_path, capsys, monkeypatch
    ):
        # sweep: 99 strengths in 3 blocks; the third block's write finds the
        # device full, or its evaluation is interrupted.
        # mc: 10 trials in 3 blocks of rows; the third block's write finds
        # the device full, or is interrupted.
        # mc-experiment: the experiment fails (at r = 1, lam = 1e-17 the
        # Fisher information is infinite), or is interrupted, before any row
        # is written.
        out_path = tmp_path / "out.csv"
        if before is not None:
            out_path.write_bytes(before)
        calls = []
        sweep = ["sweep", "--lambda-min", "0.01", "--lambda-max", "0.99", "--lambda-step", "0.01"]
        if command == "mc" or (command, stop) == ("sweep", None):
            failure = stop or OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def write(text):
                calls.append(1)
                if len(calls) == 4:  # the header, then two blocks
                    raise failure

            if command == "mc":
                monkeypatch.setattr(mc, "_BLOCK_TRIALS", 4)
            monkeypatch.setattr(
                cli, "open", lambda *a, **k: SpyFile(open(*a, **k), write), raising=False
            )
            args = self.OUT_COMMANDS["mc"] if command == "mc" else sweep
            calls_at_stop, failed = 4, (1, "No space left on device")
        elif command == "mc-experiment":
            if stop is None:
                args = ["mc", "--r", "1", "--lambda", "1e-17", "--trials", "3"]
            else:
                def experiment(cfg):
                    calls.append(1)
                    raise stop

                monkeypatch.setattr(mc, "run_experiment", experiment)
                args = self.OUT_COMMANDS["mc"]
            calls_at_stop, failed = 1, (2, "Fisher information is infinite")
        else:
            real_kernel = protocol.qfi_and_gain

            def kernel(*args):
                calls.append(1)
                if len(calls) == 3:
                    raise stop
                return real_kernel(*args)

            monkeypatch.setattr(protocol, "qfi_and_gain", kernel)
            args, calls_at_stop = sweep, 3
        args = [*args, "--out", str(out_path)]
        if stop is None:
            code, out, err = run_cli(args, capsys)
            assert out == ""
            assert code == failed[0] and failed[1] in err
        else:
            with pytest.raises(stop):
                cli.main(args)
            assert len(calls) == calls_at_stop
        assert sorted(os.listdir(tmp_path)) == ([] if before is None else ["out.csv"])
        if before is not None:
            assert out_path.read_bytes() == before

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    def test_existing_file_that_is_not_regular_is_written_in_place(self, command, capsys):
        args = self.OUT_COMMANDS[command]
        code, out, err = run_cli([*args, "--out", os.devnull], capsys)
        assert (code, err) == (0, "")
        if command == "sweep":
            assert out == f"wrote 399 rows to {os.devnull}\n"
        else:
            assert out == run_cli(args, capsys)[1]  # the line mc prints without --out

    @pytest.mark.parametrize("path", ["/dev/stdout", "/dev/fd/1"])
    @pytest.mark.parametrize("command", ["sweep", "mc"])
    def test_out_that_is_stdout_follows_what_stdout_holds(self, command, path, tmp_path, capsys):
        # stdout is a regular file that holds a line, as in the shell's
        # { echo before; paulifish ... --out /dev/stdout; echo after; } > file:
        # the CSV, then the command's own line, follow that line, and a line
        # written after the command follows them. Replacing --out would
        # leave the file with the CSV alone
        args = self.OUT_COMMANDS[command]
        own_csv = tmp_path / "own.csv"
        code, line, _ = run_cli([*args, "--out", str(own_csv)], capsys)
        assert code == 0
        stdout = tmp_path / "stdout.txt"
        with open(stdout, "w") as fh:
            fh.write("before\n")
            fh.flush()
            done = subprocess.run(
                [sys.executable, "-m", "paulifish.cli", *args, "--out", path],
                stdout=fh, stderr=subprocess.PIPE, text=True, env=child_env(), timeout=120,
            )
            fh.write("after\n")
        assert (done.returncode, done.stderr) == (0, "")
        line = line.replace(str(own_csv), path)
        assert stdout.read_text() == "before\n" + own_csv.read_text() + line + "after\n"
        assert sorted(os.listdir(tmp_path)) == ["own.csv", "stdout.txt"]

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    def test_written_file_gets_the_mode_of_a_plain_open(self, command, tmp_path, capsys):
        with open(tmp_path / "plain", "w"):
            pass
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli([*self.OUT_COMMANDS[command], "--out", str(out_path)], capsys)
        assert code == 0, err
        assert out_path.stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_symlinked_out_keeps_the_link(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target.name)
        code, _, err = run_cli(["sweep", "--out", str(link)], capsys)
        assert code == 0, err
        assert link.is_symlink()
        assert target.read_text().startswith(cli.CSV_HEADER + "\n")
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    @pytest.mark.parametrize(
        "name",
        ["", "missing" + os.sep, os.path.join("missing", "x.csv")],
        ids=["empty", "separator", "missing-directory"],
    )
    @pytest.mark.parametrize(
        "command, module, work",
        [("sweep", protocol, "qfi_and_gain"), ("mc", mc, "run_experiment")],
        ids=["sweep", "mc"],
    )
    def test_unopenable_out_exits_1_before_evaluating(
        self, command, module, work, name, tmp_path, capsys, monkeypatch
    ):
        def refuse(*_):
            raise AssertionError("evaluated before the output was opened")

        monkeypatch.setattr(module, work, refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([*self.OUT_COMMANDS[command], "--out", name], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and repr(name) in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    def test_missing_directory_error_names_the_out_path(self, command, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli([*self.OUT_COMMANDS[command], "--out", str(out_path)], capsys)
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{out_path}'\n"


class TestVerifyCommand:
    #: Each suite's line at the default --n-max with every number masked as #
    LINES = [
        "PASS oracle               max_err=# (n<= #, tol #)",
        "PASS bounds               max_err=# (max excess #, pure-limit rel #, "
        "single-use rel #, exact zeros #)",
        "PASS weight-inequalities  max_err=# (worst margin #, min single-use gain excess #)",
        "PASS discord              max_err=# (mono #, sym #, routes #, "
        "half-strength Q # with gain excess #)",
        "PASS stationary           max_err=# (root dev #, |dG/dr| #)",
        "PASS separability         max_err=# (flip margin #, separable-with-gain True, routes #)",
        "PASS preparation          max_err=# (n in {#,#,#}, tol #)",
        "PASS threshold-gain       max_err=# (m=n in #..#)",
    ]

    def test_full_run_passes_with_each_suite_line_worded_as_before(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert re.sub(r"-?\d+(\.\d+)?(e[-+]\d+)?", "#", out).splitlines() == self.LINES

    def test_single_bounded_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "oracle", "--n-max", "3"], capsys)
        assert code == 0
        assert out.startswith("PASS oracle")

    @pytest.mark.parametrize("suite", [["--suite", "oracle"], []])
    def test_eight_qubits_without_large_eigensolves(self, suite, monkeypatch, capsys):
        # dense states only up to n = 4, so no eigensolve beyond 16 x 16
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def guarded(a, *args, _real=real, **kwargs):
                assert np.shape(a)[-1] <= 16, np.shape(a)
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, guarded)
        code, out, _ = run_cli(["verify", *suite, "--n-max", "8"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == (1 if suite else len(verify.SUITES))
        assert all(l.startswith("PASS") for l in lines)
        assert "PASS oracle" in out and "(n<= 8, tol 1e-8)" in out

    def test_oracle_fails_on_a_scaled_route(self, monkeypatch, capsys):
        # scale the dense route by 1 + 1e-7, past the suite's 1e-8 tolerance
        real = channels.correlated_state

        def scaled(*args):
            rho, drho = real(*args)
            return rho, drho * math.sqrt(1.0 + 1e-7)

        monkeypatch.setattr(channels, "correlated_state", scaled)
        code, out, _ = run_cli(["verify", "--suite", "oracle", "--n-max", "4"], capsys)
        assert code == 1
        assert out.startswith("FAIL oracle")


class TestMcCommand:
    def test_reference_run_saturates_bound(self, tmp_path, capsys):
        out_path = tmp_path / "mc.csv"
        code, out, _ = run_cli(
            ["mc", "--r", "0.8", "--lambda", "0.3", "--shots", "100000",
             "--trials", "200", "--seed", "7", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        fields = parse_fields(out.strip())
        assert 0.9 <= float(fields["ratio"]) <= 1.1
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        ests = np.array([float(r["lambda_hat"]) for r in rows])
        res = mc.run_experiment(
            mc.ExperimentConfig(
                r=0.8, lambda_true=0.3, m=1, trials=200, shots_per_trial=100_000, seed=7
            )
        )
        np.testing.assert_allclose(ests, res.estimates, atol=1e-11)

    def test_same_seed_gives_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(
                ["mc", "--r", "0.5", "--lambda", "0.4", "--shots", "1000",
                 "--trials", "20", "--seed", "9", "--out", str(path)],
                capsys,
            )
        assert a.read_bytes() == b.read_bytes()

    README_ARGS = ["mc", "--r", "0.8", "--lambda", "0.3", "--shots", "100000", "--seed", "7"]

    def test_readme_example_prints_pinned_line(self, capsys):
        code, out, err = run_cli([*self.README_ARGS, "--trials", "200"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "mean=0.299820375 variance=3.54644678078e-06 crb=3.50625e-06 "
            "ratio=1.0114643225 fisher=2.85204991087 clamped=0\n"
        )

    def test_twenty_thousand_trial_csv_digest_is_pinned(self, tmp_path, capsys):
        out_path = tmp_path / "trials.csv"
        code, _, _ = run_cli(
            [*self.README_ARGS, "--trials", "20000", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            "9bc1cd39f2bb3ee723f7962dda00d53161d79604096d50d6a8436f6949ecece3"
        )

    def test_symmetric_point_mean(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--r", "0.5", "--lambda", "0.5", "--shots", "10000",
             "--trials", "100", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert float(parse_fields(out.strip())["mean"]) == pytest.approx(0.5, abs=3e-3)

    def test_subnormal_polarization_warns_nothing(self, capsys):
        # the estimator's quotient overflows to +-inf and is clamped; numpy's
        # overflow warning would reach the user's stderr
        code, out, err, caught = run_cli_recording_warnings(
            ["mc", "--r", "5e-324", "--lambda", "0.3", "--trials", "3"], capsys
        )
        assert (code, err, caught) == (0, "", [])
        assert out == "mean=0 variance=0 crb=inf ratio=0 fisher=0 clamped=3\n"


def command_parsers():
    """Each command's argparse parser, by name."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("command", ["qfi", "sweep", "verify", "mc"])
def test_help_prints_what_every_option_takes(command, capsys):
    options = [a for a in command_parsers()[command]._actions if a.dest != "help"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    shown = " ".join(capsys.readouterr().out.split())
    assert exc.value.code == 0 and options
    for action in options:
        assert action.help and " ".join(action.help.split()) in shown, action.option_strings


@pytest.mark.parametrize(
    "args, code, out",
    [
        (["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.5"], 0,
         "n=2 m=1 r=0.5 lambda=0.5 H_ind=1 H_corr=1.6 gain=1.6 bound=4\n"),
        (["verify", "--suite", "nope"], 2, ""),
    ],
)
def test_module_entry_exits_with_the_command_status(args, code, out):
    # python -m paulifish.cli, the way benchmarks/run.py runs each command
    done = run_child(["-m", "paulifish.cli", *args])
    assert (done.returncode, done.stdout) == (code, out), done.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.5"],
        ["verify", "--suite", "preparation"],
    ],
)
def test_main_leaves_the_collector_alone(args, capsys):
    before = gc.get_freeze_count()
    assert run_cli(args, capsys)[0] == 0
    assert gc.get_freeze_count() == before


# Runs paulifish.cli as __main__ on the child's arguments, with an atexit
# hook that reports at shutdown whether the collector was frozen.
FROZEN_AT_EXIT = """
import atexit, gc, runpy
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
runpy.run_module("paulifish.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "args, code, err",
    [
        (["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.5"], 0, ""),
        (["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "1.5"], 2, "error: "),
        (["qfi", "--n", "2"], 2, "usage: "),  # argparse's SystemExit
    ],
    ids=["success", "domain-error", "usage-error"],
)
def test_module_entry_freezes_the_collector_on_every_exit(args, code, err):
    done = run_child(["-c", FROZEN_AT_EXIT, *args])
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(err)
    assert done.stdout.endswith("frozen True\n"), done.stdout


def test_installed_script_is_the_freezing_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"paulifish": "paulifish.cli:run"}


@pytest.mark.parametrize("command", ["sweep", "mc"])
def test_module_entry_closes_its_out_file(command, tmp_path):
    # with the collector frozen at exit a file left open would no longer be
    # reported there; -X dev reports it as a ResourceWarning, -W error fails on it
    args = {
        "sweep": ["sweep", "--n", "3", "--m", "2"],
        "mc": ["mc", "--r", "0.8", "--lambda", "0.3", "--trials", "10"],
    }[command]
    out_path = tmp_path / "out.csv"
    done = run_child(["-X", "dev", "-W", "error", "-m", "paulifish.cli", *args, "--out", out_path])
    assert (done.returncode, done.stderr) == (0, "")
    assert out_path.read_text().count("\n") > 10


# Imports cli, then prints the thread count of the OpenBLAS bundled with
# numpy, asked as benchmarks/run.py's blas_threads asks it, or "none".
BLAS_THREADS = """
import ctypes, pathlib
import paulifish.cli
import numpy

libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
threads = "none"
for path in sorted(libs.glob("lib*openblas*.so*")):
    lib = ctypes.CDLL(str(path))
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None and threads == "none":
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads = fn()
print(threads)
"""


@pytest.mark.parametrize("user", [None, "2"])
def test_cli_runs_openblas_on_one_thread_unless_the_user_sets_it(user):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if user is not None and cpus < int(user):
        pytest.skip("OpenBLAS starts no more threads than there are CPUs")
    done = run_child(["-c", BLAS_THREADS], **({} if user is None else {"OPENBLAS_NUM_THREADS": user}))
    assert done.returncode == 0, done.stderr
    if done.stdout == "none\n":
        pytest.skip("numpy bundles no OpenBLAS")
    assert done.stdout == f"{user or 1}\n"


class TestClosedStdout:
    class ClosedPipe:
        """A stdout whose reader has gone: unbuffered it fails on write,
        buffered only on flush."""

        def __init__(self, fd, buffered):
            self.fd, self.buffered = fd, buffered

        def write(self, text):
            if not self.buffered:
                raise BrokenPipeError(32, "Broken pipe")
            return len(text)

        def flush(self):
            if self.buffered:
                raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize(
        "args",
        [
            ["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.3"],
            ["verify", "--suite", "oracle", "--n-max", "3"],
            ["mc", "--r", "0.8", "--lambda", "0.3", "--trials", "5"],
        ],
    )
    def test_closed_stdout_exits_1_silently(self, args, buffered, tmp_path, capsys):
        with open(tmp_path / "stdout", "w") as fh:
            with contextlib.redirect_stdout(self.ClosedPipe(fh.fileno(), buffered)):
                code = cli.main(args)
            # later flushes of the stream go to the null device
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "")


QFI = ["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "0.3"]
MC = ["mc", "--r", "0.8", "--lambda", "0.3"]
UNKNOWN_SUITE = ("unknown suite {!r}; choose from bounds, discord, oracle, preparation, "
                 "separability, stationary, threshold-gain, weight-inequalities")
RANGE = "{} at r = {} lies outside the float64 range"  # the field, then r


def refusing(argv, option, value):
    """argv with option, moved to the end, set to value."""
    at = argv.index(option)
    return [*argv[:at], *argv[at + 2 :], option, value]


#: Every refusal of the command line, (argv, message): exit 2, stderr
#: "error: <message>\n" and nothing on stdout. The option a row refuses
#: comes last in it. Rows are grouped by how far the command gets first.
REJECTED = {
    # the arguments alone: no axis, cell, trial key or suite, and --out unopened
    "arguments": [
        (refusing(QFI, "--n", "1"), "n=1 must lie in 2..64"),
        (refusing(QFI, "--n", "65"), "n=65 must lie in 2..64"),
        (refusing(QFI, "--m", "3"), "invocations m=3 must lie in 1..2"),
        (refusing(QFI, "--m", "0"), "invocations m=0 must lie in 1..2"),
        (refusing(QFI, "--r", "1.5"), "polarization must lie in [0, 1], got 1.5"),
        (refusing(QFI, "--lambda", "1.5"), "channel strength must lie in [0, 1], got 1.5"),
        (["qfi", "--n", "2", "--m", "1", "--r", "1", "--lambda", "0"],
         "pure state with lam in {0, 1} is outside the closed form's domain"),
        (["sweep", "--lambda-max", "inf"],
         "grid bounds and step must be finite, got 0.05, inf, 0.05"),
        (["sweep", "--lambda-step", "0"], "grid step must be > 0, got 0.0"),
        (["sweep", "--lambda-step", "1e-300"], "grid step 1e-300 gives more than 10000000 points"),
        (["sweep", "--r-step", "nan"], "grid bounds and step must be finite, got 0.0, 1.0, nan"),
        (["sweep", "--lambda-step", "1e-4", "--r-step", "1e-4"],
         "the grid has 90019001 rows, more than 10000000"),
        *[(["verify", "--suite", name], UNKNOWN_SUITE.format(name))
          for name in ("nope", "", "Oracle")],
        *[(["verify", "--n-max", n], f"n_max must lie in 2..64, got {n}")
          for n in ("1", "0", "-3", "65")],
        (refusing(MC, "--r", "1.5"), "polarization must lie in (0, 1], got 1.5"),
        (refusing(MC, "--r", "0"), "polarization must lie in (0, 1], got 0.0"),
        (refusing(MC, "--lambda", "1"), "true channel strength must lie in (0, 1), got 1.0"),
        ([*MC, "--m", "0"], "invocation count must be >= 1, got 0"),
        ([*MC, "--m", str(2**63)], f"invocation count must be <= 2**63 - 1, got {2**63}"),
        ([*MC, "--shots", str(2**62), "--m", "2"], "shots_per_trial * m must be <= 2**63 - 1"),
        ([*MC, "--shots", "0"], "shots_per_trial must be >= 1, got 0"),
        ([*MC, "--shots", str(10**19)], "shots_per_trial * m must be <= 2**63 - 1"),
        ([*MC, "--trials", "0"], "trials must be >= 1, got 0"),
        ([*MC, "--trials", str(10**7 + 1)], "trials must be <= 10000000, got 10000001"),
        ([*MC, "--trials", str(2**32 + 1)], "trials must be <= 10000000, got 4294967297"),
        ([*MC, "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    # a sweep's n, m and grid points, checked on the axes that cli._grid
    # builds once the row cap has passed: no cell, and --out unopened
    "axes": [
        (["sweep", "--n", "1"], "n=1 must lie in 2..64"),
        (["sweep", "--m", "3"], "invocations m=3 must lie in 1..2"),
        (["sweep", "--lambda-min", "-0.5"], "channel strength must lie in [0, 1], got -0.5"),
        (["sweep", "--r-min", "-1"], "polarization must lie in [0, 1], got -1.0"),
        (["sweep", "--r-max", "1.5"], "polarization must lie in [0, 1], got 1.05"),
        (["sweep", "--lambda-min", "0", "--lambda-max", "1"],
         "pure state with lam in {0, 1} is outside the closed form's domain"),
    ],
    # values the command computed: qfi's range rule reads the evaluated cell,
    # and mc finds an infinite Fisher information after opening --out, before
    # any trial key
    "values": [
        # the true H_corr and gain are about 1e-462 and 1e-464
        (["qfi", "--n", "64", "--m", "64", "--r", "0.5", "--lambda", "0.4999"],
         RANGE.format("H_corr", "0.5")),
        # the gain limit 4096 (2e-4)^126 is about 3.5e-463
        (["qfi", "--n", "64", "--m", "64", "--r", "0", "--lambda", "0.4999"],
         RANGE.format("gain", "0")),
        # the limits of H_corr and the gain lie below the range too
        (["qfi", "--n", "64", "--m", "64", "--r", "1", "--lambda", "0.4999"],
         RANGE.format("H_corr", "1")),
        # H_ind = m / (lam (1-lam)) is about 1e310
        (["qfi", "--n", "2", "--m", "1", "--r", "1", "--lambda", "1e-310"],
         RANGE.format("H_ind", "1")),
        # H_ind = 4 r^2 m / (1 - nu r^2) is about 2.7e-309, a subnormal,
        # where H_corr and the gain are normal
        (["qfi", "--n", "64", "--m", "27", "--r", "5e-156", "--lambda", "5e-324"],
         RANGE.format("H_ind", "5e-156")),
        # H_ind is about 8e-340 and underflows to 0 beside the exact zeros of
        # H_corr and the gain at lam = 1/2
        (["qfi", "--n", "3", "--m", "2", "--r", "1e-170", "--lambda", "0.5"],
         RANGE.format("H_ind", "1e-170")),
        (["mc", "--r", "1", "--lambda", "1e-17"],
         "an outcome probability rounds to 0 at r=1.0, lambda=1e-17: "
         "the Fisher information is infinite and the Cramér-Rao bound 0"),
    ],
}
REJECTED_ROWS = [(stage, *row) for stage, rows in REJECTED.items() for row in rows]

#: What the commands evaluate, by name, in the namespace that holds it:
#: sweep's axes, the j-sum behind every qfi and sweep cell, the key of
#: every mc trial and each verify suite. A stage lets at most one of them run.
EVALUATORS = {"_grid": vars(cli), "_log_qfi_gain": vars(protocol), "_trial_keys": vars(mc),
              **dict.fromkeys(verify.SUITES, verify.SUITES)}
STAGE_RUNS = {"arguments": None, "axes": "_grid", "values": "_log_qfi_gain"}


@pytest.mark.parametrize(
    "stage, argv, message", REJECTED_ROWS, ids=[" ".join(argv) for _, argv, _ in REJECTED_ROWS]
)
def test_refusal_exits_2_with_its_message_alone(
    stage, argv, message, tmp_path, monkeypatch, capsys
):
    def refuse(*_, **__):
        raise AssertionError("evaluated before the arguments were checked")

    for name, namespace in EVALUATORS.items():
        if name != STAGE_RUNS[stage]:
            monkeypatch.setitem(namespace, name, refuse)
    if argv[0] in ("sweep", "mc") and stage != "values":
        argv = [*argv, "--out", str(tmp_path / "missing" / "x.csv")]  # opening it exits 1
    code, out, err, caught = run_cli_recording_warnings(argv, capsys)
    assert (code, out, err, caught) == (2, "", f"error: {message}\n", [])
    assert os.listdir(tmp_path) == []


def test_every_option_has_a_refusal_row():
    # the option a row refuses is its last
    refused = {(argv[0], [a for a in argv if a[:2] == "--"][-1]) for _, argv, _ in REJECTED_ROWS}
    for command, parser in command_parsers().items():
        for action in parser._actions:
            option = action.option_strings[-1]
            assert option in ("--out", "--help") or (command, option) in refused, (command, option)


def _options(spec):
    """Argument fragments: each option of spec present or absent, with a
    value drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=spec).map(
        lambda d: [tok for name, value in d.items() for tok in (f"--{name}", value)]
    )


_FLOATS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 - 1e-13, 5e-324, 1e-300, 1e308]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
).map(repr)
# steps of at least 0.1 over bounds within [-2, 2] keep a sweep within 41 x 41
# rows; the other steps and bounds are rejected before a grid is built
_STEPS = st.one_of(
    st.floats(0.1, 4.0), st.sampled_from([0.0, -0.05, 1e-300, math.inf, math.nan])
).map(repr)
_INTS = st.one_of(st.integers(-3, 70), st.sampled_from([2**62, 2**63, 10**400])).map(str)
_JUNK = st.sampled_from(["", "x", "1.5", "0x10", "--"])
# output paths: a file in a fresh directory per run, one in a missing
# directory and the directory itself (neither can be opened), no file name
# at all, and the null device, written in place
_OUT = st.one_of(
    st.sampled_from(["out.csv", os.path.join("missing", "out.csv"), ""]).map(
        lambda name: os.path.join("<tmp>", name)
    ),
    st.sampled_from(["", os.devnull]),
)

_ARGV = st.one_of(
    _options({"n": _INTS, "m": _INTS, "r": _FLOATS, "lambda": _FLOATS | _JUNK}).map(
        lambda a: ["qfi", *a]
    ),
    _options(
        {
            "n": _INTS | _JUNK,
            "m": _INTS,
            "lambda-min": _FLOATS,
            "lambda-max": _FLOATS,
            "lambda-step": _STEPS,
            "r-min": _FLOATS,
            "r-max": _FLOATS,
            "r-step": _STEPS,
            "out": _OUT,
        }
    ).map(lambda a: ["sweep", *a]),
    # a drawn --n-max follows the default 4 and wins
    _options(
        {
            "suite": st.sampled_from(sorted(verify.SUITES) + ["nope"]),
            "n-max": st.sampled_from(["-1", "0", "2", "3", "4", "65", "x"]),
        }
    ).map(lambda a: ["verify", "--n-max", "4", *a]),
    _options(
        {
            "r": _FLOATS,
            "lambda": _FLOATS,
            "m": _INTS,
            "shots": st.one_of(st.integers(-2, 10**6), st.sampled_from([2**62, 10**20])).map(str),
            "trials": st.one_of(
                st.integers(-2, 50), st.sampled_from([10**7 + 1, 2**32 + 1])
            ).map(str),
            "seed": st.one_of(st.integers(-2, 2**40), st.just(2**200)).map(str),
            "out": _OUT,
        }
    ).map(lambda a: ["mc", *a]),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(argv=_ARGV)
@example(argv=["mc", "--r", "1", "--lambda", "1e-17", "--trials", "3"])
@example(argv=["sweep", "--m", str(10**400), "--out", os.path.join("<tmp>", "out.csv")])
def test_no_argument_vector_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("<tmp>", tmp) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:  # argparse's usage errors too: no result line before a refusal
        assert out.getvalue() == "" and "error:" in err.getvalue(), argv
