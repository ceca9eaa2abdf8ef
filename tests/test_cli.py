import contextlib
import csv
import errno
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def child_env(**overrides):
    """The environment of a child interpreter that imports paulifish from
    this tree: ours with src on PYTHONPATH and without OPENBLAS_NUM_THREADS,
    which importing cli set here, then the overrides."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    return {**env, **overrides}


def run_child(args, **overrides):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=child_env(**overrides), timeout=120,
    )


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

    def test_out_of_range_strength_exits_2(self, capsys):
        code, _, err = run_cli(
            ["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "1.5"], capsys
        )
        assert code == 2
        assert "[0, 1]" in err

    def test_subnormal_strength_warns_nothing(self, capsys):
        # m / (lam (1-lam)) overflows to an infinite bound below lam of about 5.6e-309
        code, out, err, caught = run_cli_recording_warnings(
            ["qfi", "--n", "2", "--m", "1", "--r", "0.5", "--lambda", "1e-310"], capsys
        )
        assert (code, err, caught) == (0, "", [])
        assert parse_fields(out.strip())["bound"] == "inf"

    def test_too_many_invocations_exits_2(self, capsys):
        code, _, err = run_cli(
            ["qfi", "--n", "2", "--m", "3", "--r", "0.5", "--lambda", "0.3"], capsys
        )
        assert code == 2
        assert "1..2" in err

    def test_wrapper_matches_library(self, capsys):
        args = ["qfi", "--n", "3", "--m", "2", "--r", "0.3", "--lambda", "0.2"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        fields = parse_fields(out.strip())
        point = protocol.ProtocolPoint(3, 2, 0.3, 0.2)
        assert float(fields["H_ind"]) == pytest.approx(
            qfi.qfi_independent_opt(0.3, 0.2, 2), rel=1e-10
        )
        assert float(fields["H_corr"]) == pytest.approx(
            protocol.qfi_correlated(point), rel=1e-10
        )
        assert float(fields["gain"]) == pytest.approx(protocol.gain(point), rel=1e-10)


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

    def test_unrepresentable_value_exits_2(self, capsys):
        # the true H_corr and gain are about 1e-462 and 1e-464, below the float64 range
        code, out, err = run_cli(
            ["qfi", "--n", "64", "--m", "64", "--r", "0.5", "--lambda", "0.4999"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "float64 range" in err
        assert "Traceback" not in err


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
                point = protocol.ProtocolPoint(n, m, r, lam)
                h_ind = qfi.qfi_independent_opt(r, lam, m)
                h_corr = protocol.qfi_correlated(point)
                g = protocol.gain(point)
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

    def test_sweep_writes_cells_above_float64_range_as_inf_silently(self, tmp_path):
        # H is about 1e403 here; numpy's overflow warning would print its
        # source line on the user's stderr
        out_path = tmp_path / "huge.csv"
        done = run_child(
            ["-m", "paulifish.cli", "sweep", "--n", "64", "--m", "1", "--r-min", "0.999999",
             "--r-max", "0.999999", "--lambda-min", "0", "--lambda-max", "0",
             "--out", str(out_path)]
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert out_path.read_text() == f"{cli.CSV_HEADER}\n64,1,0.999999,0,1999996.99994,inf,inf,,,\n"

    def test_degenerate_range_writes_header_only(self, tmp_path, capsys):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run_cli(
            ["sweep", "--lambda-min", "0.9", "--lambda-max", "0.1",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out_path.read_text() == cli.CSV_HEADER + "\n"

    def test_unwritable_path_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--out", str(tmp_path / "missing" / "x.csv")], capsys
        )
        assert code == 1
        assert err

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

    def test_bad_step_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--lambda-step", "0", "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2
        assert "step" in err

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

    def test_one_bad_row_fails_the_whole_sweep(self, tmp_path, capsys):
        # the lam = 0 row meets r = 1, the pure corner outside the closed forms
        out_path = tmp_path / "corner.csv"
        code, out, err = run_cli(
            ["sweep", "--lambda-min", "0", "--lambda-max", "1", "--out", str(out_path)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "pure state" in err
        assert not out_path.exists()

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
        # sweep: 100 strengths in 3 blocks; only the last meets the pure
        # corner lam = 1, r = 1, or is interrupted (99 strengths, no corner).
        # mc: 10 trials in 3 blocks of rows; the third block's write finds
        # the device full, or is interrupted.
        # mc-experiment: the experiment fails (at r = 1, lam = 1e-17 the
        # Fisher information is infinite), or is interrupted, before any row
        # is written.
        out_path = tmp_path / "out.csv"
        if before is not None:
            out_path.write_bytes(before)
        calls = []
        if command == "mc":
            failure = stop or OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def write(text):
                calls.append(1)
                if len(calls) == 4:  # the header, then two blocks
                    raise failure

            monkeypatch.setattr(mc, "_BLOCK_TRIALS", 4)
            monkeypatch.setattr(
                cli, "open", lambda *a, **k: SpyFile(open(*a, **k), write), raising=False
            )
            args, calls_at_stop = self.OUT_COMMANDS["mc"], 4
            failed = (1, "No space left on device")
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
            lam_max = "1" if stop is None else "0.99"
            if stop is not None:
                real_kernel = protocol.qfi_and_gain

                def kernel(*args):
                    calls.append(1)
                    if len(calls) == 3:
                        raise stop
                    return real_kernel(*args)

                monkeypatch.setattr(protocol, "qfi_and_gain", kernel)
            args = ["sweep", "--lambda-min", "0.01", "--lambda-max", lam_max,
                    "--lambda-step", "0.01"]
            calls_at_stop, failed = 3, (2, "pure state")
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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--n", "1"], "n=1 must lie in 2..64"),
            (["mc", "--r", "1.5", "--lambda", "0.3"], "polarization must lie in (0, 1], got 1.5"),
        ],
        ids=["sweep", "mc"],
    )
    def test_domain_error_is_raised_before_out_is_opened(self, args, message, tmp_path, capsys):
        # opening --out in a missing directory would exit 1 instead
        code, out, err = run_cli([*args, "--out", str(tmp_path / "missing" / "x.csv")], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    def test_missing_directory_error_names_the_out_path(self, command, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.csv"
        code, _, err = run_cli([*self.OUT_COMMANDS[command], "--out", str(out_path)], capsys)
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{out_path}'\n"


class TestVerifyCommand:
    def test_full_run_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(verify.SUITES)
        assert all(l.startswith("PASS") for l in lines)
        assert all("max_err=" in l for l in lines)

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

    @pytest.mark.parametrize("suite", ["nope", "", "Oracle"])
    def test_unknown_suite_exits_2_naming_the_suites(self, suite, capsys):
        code, out, err = run_cli(["verify", "--suite", suite], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: unknown suite {suite!r}; choose from bounds, discord, oracle, preparation, "
            "separability, stationary, threshold-gain, weight-inequalities\n"
        )

    @pytest.mark.parametrize("n_max", ["1", "0", "-3", "65"])
    def test_n_max_outside_range_exits_2_before_any_suite(self, n_max, capsys):
        code, out, err = run_cli(["verify", "--n-max", n_max], capsys)
        assert code == 2
        assert out == ""
        assert "2..64" in err

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

    def test_domain_error_exits_2(self, capsys):
        code, _, _ = run_cli(["mc", "--r", "0", "--lambda", "0.3"], capsys)
        assert code == 2

    def test_subnormal_polarization_warns_nothing(self, capsys):
        # the estimator's quotient overflows to +-inf and is clamped; numpy's
        # overflow warning would reach the user's stderr
        code, out, err, caught = run_cli_recording_warnings(
            ["mc", "--r", "5e-324", "--lambda", "0.3", "--trials", "3"], capsys
        )
        assert (code, err, caught) == (0, "", [])
        assert out == "mean=0 variance=0 crb=inf ratio=0 fisher=0 clamped=3\n"

    @pytest.mark.parametrize(
        "option, value", [("--seed", "-1"), ("--trials", str(2**32 + 1))]
    )
    def test_out_of_range_stream_argument_exits_2_naming_it(self, option, value, capsys):
        code, out, err = run_cli(["mc", "--r", "0.5", "--lambda", "0.3", option, value], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {option[2:]} must be")


class TestRejectedArguments:
    """Arguments outside the supported range exit 2 with a message and no
    traceback, before any grid or trial key is built."""

    MC = ["mc", "--r", "0.8", "--lambda", "0.3", "--trials", "2"]

    @pytest.mark.parametrize(
        "args, hint",
        [
            (["sweep", "--lambda-max", "inf"], "finite"),
            (["sweep", "--r-step", "nan"], "finite"),
            (["sweep", "--lambda-step", "1e-300"], f"more than {cli.MAX_SWEEP_ROWS}"),
            (["sweep", "--lambda-step", "1e-4", "--r-step", "1e-4"], "90019001 rows"),
            (MC + ["--shots", "10000000000000000000"], "2**63 - 1"),
            (MC + ["--shots", str(2**62), "--m", "2"], "2**63 - 1"),
            (MC + ["--trials", str(10**7 + 1)], "trials must be <= 10000000"),
            (["mc", "--r", "1", "--lambda", "1e-17"], "Fisher information is infinite"),
        ],
    )
    def test_exits_2_before_allocating(self, args, hint, tmp_path, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("built before the arguments were checked")

        monkeypatch.setattr(cli, "_grid", refuse)
        monkeypatch.setattr(mc, "_trial_keys", refuse)
        out_path = tmp_path / "x.csv"
        if args[0] == "sweep":
            args = args + ["--out", str(out_path)]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and hint in err
        assert "Traceback" not in err
        assert not out_path.exists()


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
    if code == 2:
        assert "error:" in err.getvalue(), argv
