import contextlib
import csv
import hashlib
import math
import os

import numpy as np
import pytest

from paulifish import channels, cli, correlations, mc, protocol, qfi


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_fields(line):
    return dict(part.split("=", 1) for part in line.split())


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
                    correlations.rho_final_two_qubit(r, lam, m)
                )
                assert float(row["discord"]) == pytest.approx(
                    correlations.discord_protocol(r, lam, m).Q, rel=1e-9, abs=1e-12
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

        for name in ("is_separable_ppt", "rho_final_two_qubit", "bell_diagonalize"):
            monkeypatch.setattr(correlations, name, forbidden)
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

    def test_bad_step_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--lambda-step", "0", "--out", str(tmp_path / "x.csv")], capsys
        )
        assert code == 2
        assert "step" in err


class TestVerifyCommand:
    def test_full_run_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(cli.verify.SUITES)
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
        assert len(lines) == (1 if suite else len(cli.verify.SUITES))
        assert all(l.startswith("PASS") for l in lines)
        assert "PASS oracle" in out and "(n<= 8, tol 1e-8)" in out

    @pytest.mark.parametrize("n_max", ["1", "0", "-3", "13"])
    def test_n_max_outside_range_exits_2_before_any_suite(self, n_max, capsys):
        code, out, err = run_cli(["verify", "--n-max", n_max], capsys)
        assert code == 2
        assert out == ""
        assert "2..12" in err

    @pytest.mark.parametrize("route", ["closed", "blocks", "dense"])
    def test_oracle_fails_on_a_scaled_route(self, route, monkeypatch, capsys):
        # scale one route by 1 + 1e-7, past the suite's 1e-8 tolerance
        if route == "closed":
            real = protocol.qfi_and_gain

            def scaled(*args):
                h, g = real(*args)
                return h * (1.0 + 1e-7), g

            monkeypatch.setattr(protocol, "qfi_and_gain", scaled)
        else:
            name = "correlated_blocks" if route == "blocks" else "correlated_state"
            real = getattr(channels, name)

            def scaled(*args):
                rho, drho = real(*args)
                return rho, drho * math.sqrt(1.0 + 1e-7)

            monkeypatch.setattr(channels, name, scaled)
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
                r=0.8, lambda_true=0.3, trials=200, shots_per_trial=100_000, seed=7
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

    @pytest.mark.parametrize(
        "option, value", [("--seed", "-1"), ("--trials", str(2**32 + 1))]
    )
    def test_out_of_range_stream_argument_exits_2_naming_it(self, option, value, capsys):
        code, out, err = run_cli(["mc", "--r", "0.5", "--lambda", "0.3", option, value], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {option[2:]} must be")


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
