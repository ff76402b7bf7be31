"""CLI: exit codes, JSON/CSV outputs, strict-JSON round trips, run-to-run
determinism."""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from postrig import cli, kernels, seqkit, specfun, trigeval
from postrig.certify import CertifyOptions, PositivityReport


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

    def test_narrow_window_exits_zero(self, tmp_path):
        # the README example: [1, 1.1] holds few points of its lattice
        out = tmp_path / "report.json"
        assert run(["certify", "--family", "koumandos-cosine", "--n", "400", "--alpha", ".5",
                    "--lo", "1", "--hi", "1.1", "-o", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert (report["verdict"], report["refinement_depth"]) == ("certified-positive", 0)

    def test_raw_sine_refuted(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["certify", "--family", "raw-sine", "--coeffs", "1,1",
                    "-o", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        w = payload["report"]["witness"]
        assert w["value"] <= 0
        assert w["theta"] > 2.0

    def test_endpoints_near_a_zero_are_sampled(self):
        # sin is negative on (-5e-10, 0), and 1 + cos vanishes at pi inside
        # (0, pi + 4e-10): neither endpoint is a multiple of pi/2
        assert run(["certify", "--family", "raw-sine", "--coeffs", "1",
                    "--lo=-5e-10", "--hi", "1"]) == 2
        assert run(["certify", "--family", "raw-cosine", "--coeffs", "2,1",
                    "--hi", "3.1415926540"]) == 3

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

    def test_strict_json_report_roundtrip(self, tmp_path):
        # strict JSON spells non-finite floats as strings; from_dict maps
        # them back (a report built directly, so nothing overflows)
        out = tmp_path / "report.json"
        rep = PositivityReport("refuted", None, (0.5 * math.pi, -math.inf), 4096, 0,
                               math.inf, (0.0, math.pi), "")
        cli._write_json(str(out), rep.to_dict())
        assert '"lipschitz": "Infinity"' in out.read_text()
        assert PositivityReport.from_dict(json.loads(out.read_text())) == rep
        rep = PositivityReport("inconclusive", math.nan, None, 2, 0, 1.0,
                               (0.0, math.pi), "")
        cli._write_json(str(out), rep.to_dict())
        assert math.isnan(PositivityReport.from_dict(json.loads(out.read_text())).lower_bound)

    def test_shifted_family(self, tmp_path):
        code = run(["certify", "--family", "shifted-cosine",
                    "--coeffs", "1,0.6,0.3", "--shift", "0.25"])
        assert code == 0

    def test_double_stride_defaults_to_zero_pi(self, tmp_path):
        # cos(theta/2) + cos(5 theta/2)/2 is -1.5 at 2 pi and positive on (0, pi)
        out = tmp_path / "r.json"
        assert run(["certify", "--family", "shifted-cosine", "--coeffs", "1,.5",
                    "--shift", ".5", "--stride", "2", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["interval"] == {"lo": 0.0, "hi": math.pi}

    def test_removed_eps_flag_is_usage_error(self):
        # the endpoint inset is a constant: --eps is an unknown flag
        assert run(["certify", "--family", "qk-sine", "--n", "10",
                    "--eps", "nan"]) == 1

    def test_overflowing_cell_mean_is_refuted(self, tmp_path):
        # the sum is -8.99e306 at pi; an overflowing cell mean certified it.
        # The witness is pi, the first point of the level-0 lattice j pi
        out = tmp_path / "r.json"
        assert run(["certify", "--family", "raw-cosine", "--coeffs",
                    "1.6179238213760842e308,8.988465674311579e307", "--lo", "1.2",
                    "--hi", "8.966370614359173", "--grid", "3", "-o", str(out)]) == 2
        assert json.loads(out.read_text())["report"]["witness"]["theta"] == math.pi

    def test_mass_beyond_the_float_range_is_refuted(self, tmp_path):
        # refuted like 1,1, at the same theta
        out, unit = tmp_path / "r.json", tmp_path / "u.json"
        assert run(["certify", "--family", "raw-sine", "--coeffs", "1e308,1e308",
                    "-o", str(out)]) == 2
        assert run(["certify", "--family", "raw-sine", "--coeffs", "1,1",
                    "-o", str(unit)]) == 2
        theta = [json.loads(p.read_text())["report"]["witness"]["theta"] for p in (out, unit)]
        assert theta[0] == theta[1]

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
        """Each d costs one solve of both routes (one root scan, the 2F3
        route's; the quadrature route confirms its root), and the entry
        holds what the two single-route calls return."""
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
        assert scans == [0.1, 0.3]
        monkeypatch.undo()
        for entry in json.loads(out.read_text())["alpha0_prime"]:
            quad = specfun.alpha0_prime(entry["d"], "quadrature-root")
            hyp = specfun.alpha0_prime(entry["d"], "hyp2f3-root")
            assert entry["value"] == quad.value
            assert entry["residual"] == quad.residual
            assert entry["hyp2f3_value"] == hyp.value
            assert entry["route_difference"] == abs(quad.value - hyp.value)

    def test_alpha0_solved_once(self, tmp_path, monkeypatch):
        """alpha0 is alpha0_prime at d = 0: one solve gives both routes, and
        the entry keeps its keys and what the two single-route calls return."""
        solves = []
        solve = specfun._solve_alpha0_prime

        def counted(d, route):
            solves.append((d, route))
            return solve(d, route)

        monkeypatch.setattr(specfun, "_solve_alpha0_prime", counted)
        out = tmp_path / "c.json"
        assert run(["constants", "--only", "alpha0", "-o", str(out)]) == 0
        assert solves == [(0.0, "quadrature-root")]
        monkeypatch.undo()
        entry = json.loads(out.read_text())["alpha0"]
        quad, hyp = specfun.alpha0("quadrature-root"), specfun.alpha0("hyp2f3-root")
        assert entry == {**asdict(quad), "hyp2f3_value": hyp.value,
                         "route_difference": abs(quad.value - hyp.value)}

    @pytest.mark.parametrize("argv, solves", [([], 11), (["--d", "0,0.1,0.25,0.04"], 12)])
    def test_alpha0_prime_solved_once_per_distinct_d(self, tmp_path, monkeypatch, argv,
                                                     solves):
        """alpha0, the --d entries and the expansion fit's 11 grid points
        share one solve per distinct d, and the fit is expansion_fit's."""
        calls = []
        solve = specfun._solve_alpha0_prime

        def counted(d, route):
            calls.append(d)
            return solve(d, route)

        monkeypatch.setattr(specfun, "_solve_alpha0_prime", counted)
        out = tmp_path / "c.json"
        assert run(["constants", *argv, "-o", str(out)]) == 0
        assert len(calls) == len(set(calls)) == solves
        monkeypatch.undo()
        payload = json.loads(out.read_text())
        beta0, beta1 = specfun.expansion_fit()
        assert (payload["beta0"], payload["beta1"]) == (asdict(beta0), asdict(beta1))

    def test_solver_error_exit_four(self):
        code = run(["constants", "--only", "alpha0_prime", "--d", "4.0"])
        assert code == 4

    def test_unknown_only_usage_error(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run(["constants", "--only", "alpha0,foo", "-o", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "foo" in err
        assert "alpha0,alpha0_prime,beta0,beta1,lambda_prime" in err

    @pytest.mark.parametrize("d", ["-1", "0.1,nan"])
    def test_bad_d_usage_error(self, d):
        assert run(["constants", "--d", d]) == 1


# certify families built from a seqkit sequence, written out by hand
_PARAMS = {"alpha": 0.45, "beta": 0.6, "lam": 0.3, "mu": 1.5, "b": 2.0, "c": 1.0}
_QK = (0.45, 0.6, 0.3, 1.5)
_DIRECT = {
    "qk-sine": lambda n: trigeval.sine_poly(seqkit.qk_sequence(n, *_QK).values[1:]),
    "qk-cosine": lambda n: trigeval.cosine_poly(seqkit.qk_sequence(n, *_QK).values[0],
                                                seqkit.qk_sequence(n, *_QK).values[1:]),
    "ratio-sine": lambda n: trigeval.sine_poly(seqkit.ratio_qk_sequence(n, *_QK).values),
    "koumandos-cosine": lambda n: trigeval.cosine_poly(
        2.0 * seqkit.koumandos_bk(n, 0.45).values[0], seqkit.koumandos_bk(n, 0.45).values[1:]),
    "koumandos-sine": lambda n: trigeval.sine_poly(seqkit.koumandos_bk(n, 0.45).values[1:]),
    "ck-cosine": lambda n: trigeval.cosine_poly(
        2.0 * seqkit.ck_sequence(n, 0.45, 2.0, 1.0).values[0],
        seqkit.ck_sequence(n, 0.45, 2.0, 1.0).values[1:]),
    "ck-sine": lambda n: trigeval.sine_poly(seqkit.ck_sequence(n, 0.45, 2.0, 1.0).values[1:]),
}


def test_family_table_covers_every_sequence_family():
    assert set(cli._CERTIFY_SEQUENCES) == set(_DIRECT)
    assert {name for name, _ in cli._CERTIFY_SEQUENCES.values()} <= set(cli._SEQUENCES)


@pytest.mark.parametrize("family", sorted(_DIRECT))
@pytest.mark.parametrize("n", [1, 2, 9, 120])
def test_family_poly_matches_direct_build(family, n):
    args = cli.build_parser().parse_args(["certify", "--family", family, "--n", str(n)])
    vars(args).update(_PARAMS)
    poly, interval = cli._family_poly(args)
    want = _DIRECT[family](n)
    assert interval == (0.0, math.pi)
    assert (poly.a0, list(poly.cos_coeffs), list(poly.sin_coeffs)) == \
        (want.a0, list(want.cos_coeffs), list(want.sin_coeffs))


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
            # sum_k q_k e^{ik angle}, term by term, at 21 of the angles
            q = seqkit.qk_sequence(n, **cli.FIG1_PARAMS).values
            tol = 1e-13 * math.fsum(abs(v) for v in q)
            for angle, re, im in ([float(v) for v in r] for r in rows[1::97]):
                assert abs(re - math.fsum(v * math.cos(k * angle)
                                          for k, v in enumerate(q))) <= tol
                assert abs(im - math.fsum(v * math.sin(k * angle)
                                          for k, v in enumerate(q))) <= tol

    def test_points_on_a_lattice_that_is_not_5_smooth(self, tmp_path):
        # --points 2002 puts fig1 on the lattice of M = 4006 = 2*2003 points,
        # one FFT of a length with a large prime factor; its values are the
        # sums at 2 pi i/M within the roundoff bound, here against the direct
        # sums at the angles written, which lie within 2^-52 theta of them
        assert run(["plotdata", "--figure", "fig1", "--n", "40", "--points", "2002",
                    "--outdir", str(tmp_path)]) == 0
        q = seqkit.qk_sequence(40, **cli.FIG1_PARAMS).values
        idx = np.arange(1, 2003)
        assert kernels.period_cheaper(40, 4006, idx)
        for tag, poly in (("cos", trigeval.cosine_poly(q[0], q[1:])),
                          ("sin", trigeval.sine_poly(q[1:]))):
            with open(tmp_path / f"fig1_{tag}_n40.csv", newline="") as fh:
                rows = np.array([[float(v) for v in r] for r in list(csv.reader(fh))[1:]])
            thetas, values = rows[:, 0], rows[:, 1]
            assert np.array_equal(thetas, idx * (math.pi / 2003))
            tol = 2 * trigeval.roundoff_bound(poly) + \
                trigeval.lipschitz_bound(poly) * thetas * 2.0 ** -52
            assert (np.abs(values - poly.values(thetas)) <= tol).all()

    def test_empty_n_usage_error(self, tmp_path):
        assert run(["plotdata", "--figure", "fig1",
                    "--outdir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("points", ["0", "-1", "-3"])
    def test_points_below_one_usage_error(self, tmp_path, points):
        assert run(["plotdata", "--figure", "fig1", "--n", "20", "--points", points,
                    "--outdir", str(tmp_path)]) == 1

    def test_lf_line_endings(self, tmp_path):
        run(["plotdata", "--figure", "fig1", "--n", "20",
             "--outdir", str(tmp_path)])
        raw = (tmp_path / "fig1_cos_n20.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 2001


class TestIOErrors:
    """An output that cannot be written is an I/O error: exit 5 with a
    one-line message, from every command."""

    @pytest.mark.parametrize("argv", [
        ["certify", "--family", "raw-cosine", "--coeffs", "3,1"],
        ["zeros", "--kind", "q", "--coeffs", "3,2,1"],
        ["criteria", "--check", "vietoris", "--family", "vietoris", "--n", "10"],
        ["constants", "--only", "alpha0"],
    ])
    def test_output_in_missing_directory(self, tmp_path, capsys, argv):
        assert run([*argv, "-o", str(tmp_path / "missing" / "out.json")]) == 5
        assert capsys.readouterr().err.startswith(f"{argv[0]}: I/O error: ")

    def test_outdir_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert run(["plotdata", "--figure", "fig1", "--n", "20",
                    "--outdir", str(tmp_path / "file" / "data")]) == 5
        assert capsys.readouterr().err.startswith("plotdata: I/O error: ")


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

    def test_narrow_window_without_a_zero(self, tmp_path):
        # the README example: [1, 1.2] holds few points of its lattice
        out = tmp_path / "z.json"
        assert run(["zeros", "--kind", "q", "--coeffs", "3,2,1", "--lo", "1", "--hi", "1.2",
                    "-o", str(out)]) == 0
        assert json.loads(out.read_text())["brackets"] == []


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

    def test_non_finite_margin_is_strict_json(self, tmp_path):
        # both taper sides overflow: the margin is NaN, written as a string
        out = tmp_path / "c.json"
        code = run(["criteria", "--check", "taper", "--family", "custom",
                    "--coeffs", "1.7e308,1.7e308,1.7e308,1.7e308", "--b", "1",
                    "--c", "1", "--alpha", "0.5", "-o", str(out)])
        assert code == 2

        def reject(token):
            raise ValueError(f"non-JSON token {token}")
        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["margin"] == "NaN"
        assert payload["satisfied"] is False

    def test_strict_json_spells_every_non_finite_float(self):
        assert cli._strict({"a": [math.inf, -math.inf, (math.nan, 1.5)], "b": None}) == \
            {"a": ["Infinity", "-Infinity", ["NaN", 1.5]], "b": None}


class TestThreadsEnvAndDeterminism:
    def test_reruns_identical_and_threads_flag_gone(self, tmp_path):
        args = ["certify", "--family", "qk-sine", "--n", "40",
                "--alpha", ".2", "--beta", ".4", "--lambda", ".3", "--mu", ".7"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(args + ["-o", str(out1)]) == 0
        assert run(args + ["-o", str(out2)]) == 0
        p1, p2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        assert p1["report"] == p2["report"]
        assert "threads" not in p1["config"]
        # evaluation is single-threaded: the flag is gone
        assert run(args + ["--threads", "2"]) == 1

    def test_plotdata_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        run(["plotdata", "--figure", "fig1", "--n", "25", "--outdir", str(d1)])
        run(["plotdata", "--figure", "fig1", "--n", "25", "--outdir", str(d2)])
        for name in ("fig1_cos_n25.csv", "fig1_sin_n25.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_parser_is_built_once_and_calls_stay_independent(tmp_path):
    # main parses with the one cached parser; each call gets its own
    # namespace, so one call's arguments never reach the next
    assert cli.build_parser() is cli.build_parser()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["certify", "--family", "raw-sine", "--coeffs", "1,1", "-o", str(a)]) == 2
    assert run(["certify", "--family", "raw-sine", "--coeffs", "1,0.5", "--lo", "0.5",
                "--hi", "2.5", "-o", str(b)]) == 0
    ra, rb = (json.loads(p.read_text())["report"] for p in (a, b))
    assert ra["interval"] == {"lo": 0.0, "hi": math.pi}
    assert rb["interval"] == {"lo": 0.5, "hi": 2.5}
    args = cli.build_parser().parse_args(["certify", "--family", "qk-sine"])
    assert (args.coeffs, args.lo, args.hi) == (None, None, None)


def test_certify_defaults_are_the_certifier_defaults():
    args = cli.build_parser().parse_args(["certify", "--family", "qk-sine"])
    assert CertifyOptions(grid0=args.grid, max_depth=args.depth) == CertifyOptions()


# every --check: its criteria flags and the seqkit report they should give
_CHECK_RUNS = {
    "vietoris": (["--family", "vietoris", "--n", "100"],
                 lambda: seqkit.check_vietoris(seqkit.vietoris_gamma(100))),
    "belov": (["--family", "koumandos", "--n", "200", "--alpha", "0.5"],
              lambda: seqkit.check_belov(seqkit.koumandos_bk(200, 0.5))),
    "chain": (["--family", "qk", "--n", "50", "--alpha", ".2", "--beta", ".4",
               "--lambda", ".3", "--mu", ".7"],
              lambda: seqkit.check_chain_condition(seqkit.qk_sequence(50, .2, .4, .3, .7),
                                                   .2, .4, .3, .7)),
    "taper": (["--family", "ck", "--n", "10", "--alpha", "0.5", "--b", "2", "--c", "1"],
              lambda: seqkit.check_taper_ratio_condition(seqkit.ck_sequence(10, .5, 2.0, 1.0),
                                                         2.0, 1.0, .5)),
}


@pytest.mark.parametrize("check", sorted(_CHECK_RUNS))
def test_criteria_json_is_the_seqkit_report(tmp_path, check):
    assert set(_CHECK_RUNS) == set(cli._CHECKS)
    flags, direct = _CHECK_RUNS[check]
    out = tmp_path / "c.json"
    report = direct()
    assert run(["criteria", "--check", check, *flags, "-o", str(out)]) == \
        (0 if report.satisfied else 2)
    want = {"check": check, "family": flags[1], **asdict(report)}
    if want["partial_sums"] is not None:
        want["partial_sums"] = list(want["partial_sums"])
    assert json.loads(out.read_text()) == want


def test_certify_inconclusive_exit_three():
    # a starved refinement budget cannot settle the sine sum near its endpoints
    code = run(["certify", "--family", "qk-sine", "--n", "40",
                "--alpha", ".2", "--beta", ".4", "--lambda", ".3", "--mu", ".7",
                "--grid", "64", "--depth", "0"])
    assert code == 3
