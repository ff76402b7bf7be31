"""CLI: exit codes, JSON/CSV outputs, env-var thread override, determinism."""

import csv
import json
import math

import pytest

from postrig import cli, specfun
from postrig.certify import PositivityReport


def run(argv):
    return cli.main(argv)


class TestCertifyCommand:
    def test_fig1_sine_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["certify", "--family", "qk-sine", "--n", "40",
                    "--alpha", ".2", "--beta", ".4", "--lambda", ".3",
                    "--mu", ".7", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["verdict"] == "certified-positive"
        assert payload["report"]["lower_bound"] > 0

    def test_raw_sine_refuted(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["certify", "--family", "raw-sine", "--coeffs", "1,1",
                    "-o", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        w = payload["report"]["witness"]
        assert w["value"] <= 0
        assert w["theta"] > 2.0

    def test_n_zero_usage_error(self):
        assert run(["certify", "--family", "qk-sine", "--n", "0"]) == 1

    def test_missing_coeffs_usage_error(self):
        assert run(["certify", "--family", "raw-sine"]) == 1

    def test_unknown_family_usage_error(self):
        assert run(["certify", "--family", "nope"]) == 1

    def test_report_json_roundtrip(self, tmp_path):
        out = tmp_path / "report.json"
        run(["certify", "--family", "qk-cosine", "--n", "20",
             "--alpha", ".2", "--beta", ".4", "--lambda", ".3", "--mu", ".7",
             "-o", str(out)])
        payload = json.loads(out.read_text())
        rep = PositivityReport.from_dict(payload["report"])
        assert json.dumps(rep.to_dict(), sort_keys=True) == \
            json.dumps(payload["report"], sort_keys=True)

    def test_shifted_family(self, tmp_path):
        code = run(["certify", "--family", "shifted-cosine",
                    "--coeffs", "1,0.6,0.3", "--shift", "0.25"])
        assert code == 0

    def test_halfangle_product_family(self):
        code = run(["certify", "--family", "halfangle-product", "--n", "30",
                    "--alpha", ".2", "--beta", ".4", "--lambda", ".3",
                    "--mu", ".7"])
        assert code == 0


class TestConstantsCommand:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "constants.json"
        code = run(["constants", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["alpha0"]["value"] == pytest.approx(0.3084437, abs=1e-6)
        assert payload["alpha0"]["route_difference"] <= 1e-8
        assert payload["lambda_prime"]["value"] == pytest.approx(0.23061297, abs=1e-6)
        assert payload["beta0"]["value"] == pytest.approx(0.4334739, abs=1e-3)
        assert payload["beta1"]["value"] == pytest.approx(0.02203153, abs=1e-3)

    def test_boundary_d(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["constants", "--only", "alpha0_prime",
                    "--d", "0.691556220438014", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["alpha0_prime"][0]["value"]) <= 1e-6

    def test_alpha0_prime_solved_once_per_d(self, tmp_path, monkeypatch):
        """Each d costs one solve of both routes (two root scans), and the
        entry holds what the two single-route calls return."""
        scans = []
        root_in_alpha = specfun._root_in_alpha

        def counted(fn, d, **kwargs):
            scans.append(d)
            return root_in_alpha(fn, d, **kwargs)

        monkeypatch.setattr(specfun, "_root_in_alpha", counted)
        out = tmp_path / "c.json"
        code = run(["constants", "--only", "alpha0_prime", "--d", "0.1,0.3",
                    "-o", str(out)])
        assert code == 0
        assert scans == [0.1, 0.1, 0.3, 0.3]
        monkeypatch.undo()
        for entry in json.loads(out.read_text())["alpha0_prime"]:
            quad = specfun.alpha0_prime(entry["d"], "quadrature-root")
            hyp = specfun.alpha0_prime(entry["d"], "hyp2f3-root")
            assert entry["value"] == quad.value
            assert entry["residual"] == quad.residual
            assert entry["hyp2f3_value"] == hyp.value
            assert entry["route_difference"] == abs(quad.value - hyp.value)

    def test_solver_error_exit_four(self):
        code = run(["constants", "--only", "alpha0_prime", "--d", "4.0"])
        assert code == 4


class TestPlotdataCommand:
    def test_fig1_files(self, tmp_path):
        code = run(["plotdata", "--figure", "fig1", "--n", "20,30,40",
                    "--outdir", str(tmp_path)])
        assert code == 0
        for n in (20, 30, 40):
            for tag in ("cos", "sin"):
                path = tmp_path / f"fig1_{tag}_n{n}.csv"
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))
                assert rows[0] == ["theta", "value"]
                assert len(rows) == 2001
                values = [float(r[1]) for r in rows[1:]]
                assert min(values) > 0  # the figure's curves stay positive
                thetas = [float(r[0]) for r in rows[1:]]
                assert 0 < thetas[0] and thetas[-1] < math.pi

    def test_fig2_files(self, tmp_path):
        code = run(["plotdata", "--figure", "fig2", "--n", "75,100,125",
                    "--outdir", str(tmp_path)])
        assert code == 0
        for n in (75, 100, 125):
            with open(tmp_path / f"fig2_n{n}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["angle", "re", "im"]
            assert len(rows) == 2001
            # closed curve samples: finite complex values
            assert all(math.isfinite(float(r[1])) for r in rows[1:])

    def test_empty_n_usage_error(self, tmp_path):
        assert run(["plotdata", "--figure", "fig1",
                    "--outdir", str(tmp_path)]) == 1

    def test_lf_line_endings(self, tmp_path):
        run(["plotdata", "--figure", "fig1", "--n", "20",
             "--outdir", str(tmp_path)])
        raw = (tmp_path / "fig1_cos_n20.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 2001


class TestZerosCommand:
    def test_p_two_coeffs(self, tmp_path):
        out = tmp_path / "z.json"
        code = run(["zeros", "--kind", "p", "--coeffs", "2,1", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["brackets"]) == 2
        b0, b1 = payload["brackets"]
        assert b0["lo"] <= 2 * math.pi / 3 <= b0["hi"]
        assert b1["lo"] <= 4 * math.pi / 3 <= b1["hi"]

    def test_q_single(self, tmp_path):
        out = tmp_path / "z.json"
        code = run(["zeros", "--kind", "q", "--coeffs", "1", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["brackets"]) == 1
        assert payload["brackets"][0]["lo"] <= math.pi <= payload["brackets"][0]["hi"]

    def test_unordered_exit_one(self):
        assert run(["zeros", "--kind", "p", "--coeffs", "1,2"]) == 1


class TestCriteriaCommand:
    def test_vietoris_family(self):
        assert run(["criteria", "--check", "vietoris", "--family", "vietoris",
                    "--n", "100"]) == 0

    def test_belov_violation_exit_two(self):
        assert run(["criteria", "--check", "belov", "--coeffs", "1,1"]) == 2

    def test_taper_check_ck(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["criteria", "--check", "taper", "--family", "ck",
                    "--n", "10", "--alpha", "0.5", "--b", "2", "--c", "1",
                    "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["satisfied"] is True

    def test_custom_needs_coeffs(self):
        assert run(["criteria", "--check", "belov", "--family", "custom"]) == 1


class TestThreadsEnvAndDeterminism:
    def test_env_overrides_flag_and_output_identical(self, tmp_path, monkeypatch):
        args = ["certify", "--family", "qk-sine", "--n", "40",
                "--alpha", ".2", "--beta", ".4", "--lambda", ".3", "--mu", ".7"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        out3 = tmp_path / "c.json"
        monkeypatch.delenv("POSTRIG_THREADS", raising=False)
        assert run(args + ["--threads", "1", "-o", str(out1)]) == 0
        monkeypatch.setenv("POSTRIG_THREADS", "4")
        assert run(args + ["--threads", "1", "-o", str(out2)]) == 0
        monkeypatch.setenv("POSTRIG_THREADS", "8")
        assert run(args + ["--threads", "2", "-o", str(out3)]) == 0
        r1 = json.loads(out1.read_text())["report"]
        r2 = json.loads(out2.read_text())["report"]
        r3 = json.loads(out3.read_text())["report"]
        assert r1 == r2 == r3
        # config records the env-resolved thread count
        assert json.loads(out2.read_text())["config"]["threads"] == 4

    def test_plotdata_byte_identical_reruns(self, tmp_path, monkeypatch):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        monkeypatch.setenv("POSTRIG_THREADS", "1")
        run(["plotdata", "--figure", "fig1", "--n", "25", "--outdir", str(d1)])
        monkeypatch.setenv("POSTRIG_THREADS", "8")
        run(["plotdata", "--figure", "fig1", "--n", "25", "--outdir", str(d2)])
        for name in ("fig1_cos_n25.csv", "fig1_sin_n25.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_certify_inconclusive_exit_three():
    # a starved refinement budget cannot settle the sine sum near its endpoints
    code = run(["certify", "--family", "qk-sine", "--n", "40",
                "--alpha", ".2", "--beta", ".4", "--lambda", ".3", "--mu", ".7",
                "--grid", "64", "--depth", "0"])
    assert code == 3
