"""HMF1 round-trips, config parsing, CLI subcommands and exit codes."""

import json
import re
import struct

import numpy as np
import pytest

from torma import cli, hmf1
from torma import geometry as geo
from torma import grid as gr
from torma import testfields as tf
from torma.config import load_config
from torma.errors import ValidationError


@pytest.fixture
def g2():
    return gr.TorusGrid.reduced(2, 16)


class TestHMF1:
    def test_scalar_roundtrip_bit_exact(self, g2, rng, tmp_path):
        f = tf.random_band_limited_real(g2, rng) + 1j * tf.random_band_limited_real(g2, rng)
        path = tmp_path / "f.hmf1"
        hmf1.write_field(path, g2, f)
        grid2, back = hmf1.read_field(path)
        assert grid2.sizes == g2.sizes
        assert back.tobytes() == f.astype(np.complex128).tobytes()

    def test_metric_roundtrip(self, g2, rng, tmp_path):
        m = tf.random_hermitian_metric(g2, rng)
        path = tmp_path / "m.hmf1"
        hmf1.write_field(path, g2, m)
        _, back = hmf1.read_field(path)
        assert np.array_equal(back, m)

    def test_header_bytes(self, g2, tmp_path):
        path = tmp_path / "z.hmf1"
        hmf1.write_field(path, g2, np.zeros(g2.sizes, dtype=complex))
        raw = path.read_bytes()
        magic, version, ncomp, reserved = struct.unpack_from("<4sIII", raw, 0)
        assert magic == b"HMF1" and version == 1 and ncomp == 1 and reserved == 0
        (n,) = struct.unpack_from("<I", raw, 16)
        assert n == 2
        sizes = struct.unpack_from("<4I", raw, 20)
        assert sizes == (16, 1, 16, 1)
        mask = struct.unpack_from("<4B", raw, 36)
        assert mask == (1, 0, 1, 0)
        assert len(raw) == 40 + 16 * 256

    def test_rejects_corruption(self, g2, tmp_path):
        path = tmp_path / "bad.hmf1"
        hmf1.write_field(path, g2, np.zeros(g2.sizes, dtype=complex))
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError):
            hmf1.read_field(path)
        # truncated payload
        hmf1.write_field(path, g2, np.zeros(g2.sizes, dtype=complex))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError):
            hmf1.read_field(path)
        # truncated header: n = 3 promises 30 bytes of sizes and mask, 2 follow
        # (escaped as struct.error)
        path.write_bytes(struct.pack("<4sIIII", b"HMF1", 1, 1, 0, 3) + b"\x00\x00")
        with pytest.raises(ValidationError, match="truncated HMF1 header"):
            hmf1.read_field(path)
        # a nonzero reserved word (ignored before)
        hmf1.write_field(path, g2, np.zeros(g2.sizes, dtype=complex))
        raw = bytearray(path.read_bytes())
        raw[12] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="reserved"):
            hmf1.read_field(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_payload(self, g2, tmp_path, bad):
        values = np.ones(g2.sizes, dtype=complex)
        values[3, 0, 5, 0] = bad
        path = tmp_path / "bad.hmf1"
        hmf1.write_field(path, g2, values)
        with pytest.raises(ValidationError, match="non-finite"):
            hmf1.read_field(path)

    def test_rejects_bad_shape(self, g2):
        with pytest.raises(ValidationError):
            hmf1.write_field("/tmp/never.hmf1", g2, np.zeros((3, 3)))


class TestConfig:
    def test_minimal_flat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\nn = 2\nsizes = 16,1,16,1\nvariant = psi\n", encoding="utf-8"
        )
        run = load_config(cfg)
        assert run.spec.grid.sizes == (16, 1, 16, 1)
        assert run.solver.newton_tol > 0

    def test_missing_field_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\nn = 2\nsizes = 16,1,16,1\nomega = nope.hmf1\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="omega"):
            load_config(cfg)

    def test_bad_variant_message(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\nn = 2\nsizes = 16,1,16,1\nvariant = zeta\n",
                       encoding="utf-8")
        with pytest.raises(ValidationError, match="variant"):
            load_config(cfg)

    def test_threads_default_one_and_honoured(self, tmp_path, monkeypatch):
        # [run] threads defaults to one FFT thread; a set count reaches the
        # grid as given, 0 meaning all cores
        monkeypatch.delenv("TORMA_THREADS", raising=False)
        monkeypatch.setattr(gr, "_FFT_WORKERS", gr._FFT_WORKERS)
        problem = "[problem]\nn = 2\nsizes = 16,1,16,1\n"
        cfg = tmp_path / "run.cfg"
        for run_section, threads, workers in (("", 1, 1), ("[run]\nthreads = 0\n", 0, -1),
                                              ("[run]\nthreads = 2\n", 2, 2)):
            cfg.write_text(problem + run_section, encoding="utf-8")
            run = load_config(cfg)
            assert run.threads == threads
            cli._apply_threads(run.threads)
            assert gr._FFT_WORKERS == workers
        monkeypatch.setenv("TORMA_THREADS", "3")
        assert load_config(cfg).threads == 3


    @pytest.mark.parametrize("section, line, key", [
        ("run", "threads = two", "threads"),
        ("solver", "newton_tol = abc", "newton_tol"),
        ("solver", "continuity_steps = 0,a,1", "continuity_steps"),
        ("solver", "max_newton = 2.5", "max_newton"),
        (None, "abc", "TORMA_THREADS"),
    ])
    def test_malformed_number_is_validation_error(self, tmp_path, capsys, monkeypatch,
                                                  section, line, key):
        # a value that does not parse fails validation (exit 2) naming its
        # key, instead of escaping as a bare ValueError; section None puts
        # the value in the TORMA_THREADS environment variable
        monkeypatch.delenv("TORMA_THREADS", raising=False)
        monkeypatch.setattr(gr, "_FFT_WORKERS", gr._FFT_WORKERS)
        text = "[problem]\nn = 2\nsizes = 16,1,16,1\n"
        if section is None:
            monkeypatch.setenv("TORMA_THREADS", line)
        else:
            text += f"\n[{section}]\n{line}\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=key):
            load_config(cfg)
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["continuity_steps =", "continuity_steps = 0, nan, 1"])
    def test_bad_schedule_exits_2(self, tmp_path, capsys, line):
        # an empty schedule escaped as an IndexError (exit 1), a NaN in it
        # as a GMRES failure (exit 3)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[problem]\nn = 2\nsizes = 16,1,16,1\n\n[solver]\n{line}\n",
                       encoding="utf-8")
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "continuity schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("stagnaton_window = 3", "stagnaton_window"),
        ("linear_maxiter = 1", "linear_maxiter"),  # a key that was removed
    ])
    def test_unknown_solver_key_is_validation_error(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[problem]\nn = 2\nsizes = 16,1,16,1\n\n[solver]\n{line}\n",
                       encoding="utf-8")
        with pytest.raises(ValidationError, match=f"unknown key {key}"):
            load_config(cfg)
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("line, dealias", [
        ("", False), ("dealias = On", True), ("dealias = 1", True), ("dealias = no", False),
    ])
    def test_dealias_takes_configparser_booleans(self, tmp_path, line, dealias):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[problem]\nn = 2\nsizes = 16,1,16,1\n\n[run]\n{line}\n",
                       encoding="utf-8")
        assert load_config(cfg).dealias_check is dealias

    def test_run_seed_is_not_read(self, tmp_path, monkeypatch):
        # torma manufacture records its seed under [run]; loading ignores it
        monkeypatch.delenv("TORMA_THREADS", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\nn = 2\nsizes = 16,1,16,1\n\n[run]\nseed = x\n",
                       encoding="utf-8")
        assert load_config(cfg).threads == 1


class TestCli:
    def test_solve_flat_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\nn = 2\nsizes = 16,1,16,1\n\n"
            "[outputs]\nreport = report.json\nrecords = records.jsonl\nu = u.hmf1\n",
            encoding="utf-8",
        )
        code = cli.main(["solve", "--config", str(cfg)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"]
        assert abs(report["b"]) < 1e-10
        lines = (tmp_path / "records.jsonl").read_text().strip().splitlines()
        assert all("residual_sup" in json.loads(line) for line in lines)
        _, u = hmf1.read_field(tmp_path / "u.hmf1")
        assert np.max(np.abs(u)) < 1e-9

    def test_manufacture_then_solve_recovery(self, tmp_path, capsys):
        out = tmp_path / "prob"
        assert cli.main([
            "manufacture", "--n", "3", "--size", "16", "--active", "0,2",
            "--amplitude", "0.05", "--seed", "7", "--out", str(out),
        ]) == 0
        assert cli.main(["solve", "--config", str(out / "solve.cfg")]) == 0
        meta = json.loads((out / "meta.json").read_text())
        report = json.loads((out / "report.json").read_text())
        _, u = hmf1.read_field(out / "u.hmf1")
        _, u_star = hmf1.read_field(out / "u_star.hmf1")
        u_star_sup = u_star - np.max(u_star.real)
        rel = np.max(np.abs(u - u_star_sup)) / np.max(np.abs(u_star_sup))
        assert rel < 1e-6
        assert abs(report["b"] - meta["b_star"]) < 1e-8
        lines = (out / "records.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert report["linear_iterations"] == sum(r["linear_iterations"] for r in records) > 0
        # resolution numbers and per-record grid sizes; 16 x 16 is not
        # coarsened (8 x 8 is below solver.MIN_COARSE_NODES), so no coarse gap
        assert report["residual_gap"] == report["residual_sup_full"] - report["residual_sup"]
        assert "coarse_gap" not in report
        assert all(r["sizes"] == [16, 1, 16, 1, 1, 1] for r in records)

    def test_solve_dealias_writes_dealiased_residual(self, tmp_path, capsys):
        out = tmp_path / "prob"
        assert cli.main([
            "manufacture", "--n", "3", "--size", "16", "--active", "0,2",
            "--amplitude", "0.05", "--seed", "7", "--out", str(out),
        ]) == 0
        cfg = out / "solve.cfg"
        cfg.write_text(cfg.read_text() + "dealias = true\n", encoding="utf-8")
        assert cli.main(["solve", "--config", str(cfg)]) == 0
        report = json.loads((out / "report.json").read_text())
        # the refined grid sees the aliasing that the resolved residual drops
        assert report["residual_sup_dealiased"] > report["residual_sup"]
        cfg.write_text(cfg.read_text().replace("dealias = true", "dealias = ture"),
                       encoding="utf-8")
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "[run] dealias" in capsys.readouterr().err

    def test_nested_solve_writes_coarse_gap(self, tmp_path, capsys):
        out = tmp_path / "prob"
        assert cli.main([
            "manufacture", "--n", "3", "--size", "32", "--active", "0,2",
            "--amplitude", "0.05", "--seed", "7", "--out", str(out),
        ]) == 0
        assert cli.main(["solve", "--config", str(out / "solve.cfg")]) == 0
        report = json.loads((out / "report.json").read_text())
        records = [json.loads(line) for line in
                   (out / "records.jsonl").read_text().splitlines()]
        assert report["converged"]
        assert 0.0 < report["coarse_gap"] < 1.0
        assert report["residual_gap"] == report["residual_sup_full"] - report["residual_sup"]
        assert records[0]["sizes"] == [16, 1, 16, 1, 1, 1]
        assert records[-1]["sizes"] == [32, 1, 32, 1, 1, 1]

    def test_validate_metric_flat(self, tmp_path, capsys):
        grid = gr.TorusGrid.reduced(3, 8)
        flat = np.broadcast_to(np.eye(3, dtype=complex), grid.sizes + (3, 3)).copy()
        path = tmp_path / "flat.hmf1"
        hmf1.write_field(path, grid, flat)
        assert cli.main(["validate-metric", "--field", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["defects"]["gauduchon_defect"] < 1e-12
        assert payload["torsion_sup"] < 1e-12

    def test_validate_metric_torsion_without_curvature(self, tmp_path, capsys, rng,
                                                       monkeypatch):
        # torsion_sup takes the connection's torsion, bit for bit, and never
        # differentiates the connection into the curvature
        grid = gr.TorusGrid.reduced(3, 8, active_coords=(0, 2))
        metric = tf.random_hermitian_metric(grid, rng, amplitude=0.2)
        want = geo.chern_connection(grid, metric).torsion_sup()
        path = tmp_path / "metric.hmf1"
        hmf1.write_field(path, grid, metric)

        def curvature(*args):
            raise AssertionError("validate-metric builds the curvature")

        monkeypatch.setattr(gr, "d_antiholo", curvature)
        assert cli.main(["validate-metric", "--field", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["torsion_sup"] == want

    def test_validate_metric_exit_2_on_non_finite_payload(self, tmp_path, capsys):
        grid = gr.TorusGrid.reduced(3, 8)
        flat = np.broadcast_to(np.eye(3, dtype=complex), grid.sizes + (3, 3)).copy()
        flat[2, 0, 5, 0, 0, 0, 1, 0] = np.nan
        path = tmp_path / "nan.hmf1"
        hmf1.write_field(path, grid, flat)
        assert cli.main(["validate-metric", "--field", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\nn = 2\nsizes = 7,1,16,1\n", encoding="utf-8")
        assert cli.main(["solve", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text, key", [
        ("[problem]\nn = 3\n", "sizes"),  # escaped as an AttributeError (exit 1)
        ("[problem]\nsizes = 16,1,16,1\n", "n"),  # exit 2, but a TypeError's message
    ])
    def test_exit_2_on_missing_problem_key(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        message = f"[problem] is missing the key {key}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_config(cfg)
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_exit_2_on_bad_solver_setting(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\nn = 2\nsizes = 16,1,16,1\n\n[solver]\nmax_newton = 0\n",
            encoding="utf-8",
        )
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "max_newton" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1e-12", "nan", "0.5"])
    def test_exit_2_on_bad_linear_tol(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"[problem]\nn = 2\nsizes = 16,1,16,1\n\n[solver]\nlinear_tol = {value}\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="linear_tol"):
            load_config(cfg)
        assert cli.main(["solve", "--config", str(cfg)]) == 2
        assert "linear_tol" in capsys.readouterr().err

    def test_exit_3_on_solver_failure(self, tmp_path, capsys):
        grid = gr.TorusGrid.reduced(2, 16)
        f_big = (60.0 * np.cos(2 * np.pi * grid.coordinate(0)).real).astype(complex)
        fpath = tmp_path / "F.hmf1"
        hmf1.write_field(fpath, grid, f_big)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[problem]\nn = 2\nsizes = 16,1,16,1\nF = F.hmf1\n\n"
            "[solver]\nmax_newton = 4\nmin_t_step = 0.125\n",
            encoding="utf-8",
        )
        assert cli.main(["solve", "--config", str(cfg)]) == 3

    def test_determinism_bit_identical_reports(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cli.main([
                "manufacture", "--n", "2", "--size", "16", "--active", "0,2",
                "--seed", "11", "--out", str(out),
            ])
            cli.main(["solve", "--config", str(out / "solve.cfg")])
            outs.append((
                (out / "report.json").read_bytes(),
                (out / "records.jsonl").read_bytes(),
                (out / "u.hmf1").read_bytes(),
            ))
        assert outs[0] == outs[1]

    def test_fft_threads_leave_outputs_bit_identical(self, tmp_path, capsys, monkeypatch):
        # the FFT thread count is the one process setting; a nested 16^3
        # solve writes the same bytes on one thread and on all cores
        monkeypatch.delenv("TORMA_THREADS", raising=False)
        monkeypatch.setattr(gr, "_FFT_WORKERS", gr._FFT_WORKERS)
        prob = tmp_path / "prob"
        assert cli.main([
            "manufacture", "--n", "3", "--size", "16", "--active", "0,2,4",
            "--seed", "7", "--out", str(prob),
        ]) == 0
        base = (prob / "solve.cfg").read_text(encoding="utf-8")
        outs = []
        for threads in (1, 0):
            cfg = prob / f"solve_{threads}.cfg"
            cfg.write_text(base.replace("report.json", f"report_{threads}.json")
                           .replace("records.jsonl", f"records_{threads}.jsonl")
                           .replace("u = u.hmf1", f"u = u_{threads}.hmf1")
                           + f"threads = {threads}\n", encoding="utf-8")
            assert cli.main(["solve", "--config", str(cfg)]) == 0
            outs.append(tuple((prob / name).read_bytes() for name in (
                f"report_{threads}.json", f"records_{threads}.jsonl", f"u_{threads}.hmf1")))
        assert outs[0] == outs[1]

    def test_gauduchon_factor_command(self, tmp_path, capsys):
        grid = gr.TorusGrid.reduced(3, 16, active_coords=(0, 2))
        rng = np.random.default_rng(5)
        omega = tf.random_hermitian_metric(grid, rng, amplitude=0.15, max_mode=1)
        path = tmp_path / "omega.hmf1"
        hmf1.write_field(path, grid, omega)
        sig_path = tmp_path / "sigma.hmf1"
        assert cli.main([
            "gauduchon-factor", "--field", str(path), "--out", str(sig_path),
            "--tol", "1e-9",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["defect_after"] < 1e-7
        assert sig_path.exists()

    def test_ricci_command_trivial_and_obstructed(self, tmp_path, capsys):
        grid = gr.TorusGrid.reduced(3, 8)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[problem]\nn = 3\nsizes = 8,1,8,1,8,1\n", encoding="utf-8")
        psi = np.zeros(grid.sizes + (3, 3), dtype=complex)  # = Ric(flat)
        psi_path = tmp_path / "psi.hmf1"
        hmf1.write_field(psi_path, grid, psi)
        out_metric = tmp_path / "metric.hmf1"
        code = cli.main([
            "ricci", "--config", str(cfg), "--psi", str(psi_path),
            "--out-metric", str(out_metric),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ricci_defect"] < 1e-9
        _, metric = hmf1.read_field(out_metric)
        assert np.max(np.abs(metric - np.eye(3))) < 1e-9
        # a constant (1,1)-form with nonzero trace is cohomologically obstructed
        hmf1.write_field(psi_path, grid, psi + 0.05 * np.eye(3))
        assert cli.main(["ricci", "--config", str(cfg), "--psi", str(psi_path)]) == 2

    def test_diagnose_command(self, tmp_path, capsys):
        out = tmp_path / "prob"
        cli.main([
            "manufacture", "--n", "3", "--size", "16", "--active", "0,2",
            "--seed", "3", "--out", str(out),
        ])
        cli.main(["solve", "--config", str(out / "solve.cfg")])
        report = json.loads((out / "report.json").read_text())
        code = cli.main([
            "diagnose", "--config", str(out / "solve.cfg"),
            "--u", str(out / "u.hmf1"), "--b", str(report["b"]),
            "--out", str(out / "diag.json"), "--csv", str(out / "cherrier.csv"),
        ])
        assert code == 0
        diag = json.loads((out / "diag.json").read_text())
        assert diag["b_bound"]["satisfied"]
        assert (out / "cherrier.csv").read_text().startswith("p,")
