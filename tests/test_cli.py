import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heightlab
from heightlab.cli import VERSION, main
from heightlab.counting import (
    bounded_window,
    count_points,
    count_window,
    enum_points,
)
from heightlab.counting import HeightWindow
from heightlab.geomcurve import curve_to_json, line_p2
from heightlab.lattice import EucLattice, is_semistable
from heightlab.projpoint import variety

from test_lattice import random_gram


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestCount:
    def test_line_count_fields(self, capsys):
        doc = run_json(capsys, ["count", "--variety", "pn", "--dim", "1",
                                "--bound", "1000", "--metric", "sup"])
        assert doc["count"] == 1216768
        assert doc["fit"] == pytest.approx(1.216768)
        assert doc["reference"] == pytest.approx(12 / math.pi ** 2)
        assert doc["provenance"]["command"] == \
            "count --bound 1000 --dim 1 --metric sup --variety pn"
        assert doc["provenance"]["seed"] == 0

    def test_blowup_pieces(self, capsys):
        doc = run_json(capsys, ["count", "--variety", "blowup", "--dim", "2",
                                "--bound", "50"])
        e, u = doc["exceptional"], doc["off_exceptional"]
        assert doc["count"] == e["count"] + u["count"]
        assert e["reference"] == pytest.approx(12 / math.pi ** 2)
        assert u["reference"] == pytest.approx(96 / math.pi ** 4)
        assert e["fit"] == pytest.approx(e["count"] / 50 ** 2)

    def test_csv_has_versioned_header(self, capsys):
        code = main(["count", "--variety", "pn", "--dim", "1",
                     "--bound", "10", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# heightlab 0.1.0 | seed 0 | count")
        assert lines[1] == "# columns v1"
        assert lines[2].split(",")[:2] == ["variety", "dim"]


class TestEnumerate:
    def test_matches_library_order(self, tmp_path, capsys):
        doc = run_json(capsys, ["enumerate", "--variety", "pn", "--dim", "1",
                                "--bound", "5"])
        w = bounded_window(variety("pn", 1), 5)
        expect = [":".join(map(str, p.coords)) for p in enum_points(w)]
        assert doc["points"] == expect
        assert doc["count"] == len(expect)

    def test_workers_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["enumerate", "--variety", "p1n", "--dim", "2",
                     "--bound", "20", "--workers", "1",
                     "--out", str(a)]) == 0
        assert main(["enumerate", "--variety", "p1n", "--dim", "2",
                     "--bound", "20", "--workers", "3",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "cache"
        cold, warm = tmp_path / "cold.csv", tmp_path / "warm.csv"
        argv = ["enumerate", "--variety", "pn", "--dim", "2", "--bound", "4",
                "--format", "csv", "--cache-dir", str(cache)]
        assert main(argv + ["--out", str(cold)]) == 0
        assert (cache / f"pn2_sup_B4_v{VERSION}.csv").exists()
        assert main(argv + ["--out", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()

    def test_stale_version_file_is_ignored(self, tmp_path):
        cache = tmp_path / "cache"
        argv = ["enumerate", "--variety", "pn", "--dim", "1", "--bound", "3",
                "--format", "csv", "--cache-dir", str(cache)]
        fresh = tmp_path / "fresh.csv"
        assert main(argv[:-2] + ["--out", str(fresh)]) == 0
        # files that older releases left for this bound, with other points
        cache.mkdir()
        (cache / "pn1_sup_B3.csv").write_text("point\n9:9\n")
        (cache / "pn1_sup_B3_v0.0.1.csv").write_text("# points 1\npoint\n9:9\n")
        out = tmp_path / "now.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert (cache / f"pn1_sup_B3_v{VERSION}.csv").exists()

    def test_truncated_file_is_rewritten(self, tmp_path):
        cache = tmp_path / "cache"
        argv = ["enumerate", "--variety", "p1n", "--dim", "2", "--bound", "9",
                "--format", "csv", "--cache-dir", str(cache)]
        cold = tmp_path / "cold.csv"
        assert main(argv + ["--out", str(cold)]) == 0
        cached = cache / f"p1n2_sup_B9_v{VERSION}.csv"
        whole = cached.read_text()
        lines = whole.splitlines()
        assert lines[:2] == [f"# points {len(lines) - 2}", "point"]
        cached.write_text("\n".join(lines[:-3]) + "\n")
        warm = tmp_path / "warm.csv"
        assert main(argv + ["--out", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        assert cached.read_text() == whole

    def test_cache_env_override(self, tmp_path, monkeypatch):
        env_cache = tmp_path / "envcache"
        monkeypatch.setenv("HEIGHTLAB_CACHE", str(env_cache))
        out = tmp_path / "o.csv"
        assert main(["enumerate", "--variety", "pn", "--dim", "1",
                     "--bound", "3", "--format", "csv",
                     "--cache-dir", str(tmp_path / "flagcache"),
                     "--out", str(out)]) == 0
        assert (env_cache / f"pn1_sup_B3_v{VERSION}.csv").exists()
        assert not (tmp_path / "flagcache").exists()


class TestConstant:
    def test_plane_constant(self, capsys):
        doc = run_json(capsys, ["constant", "--variety", "pn", "--dim", "2",
                                "--primes-up-to", "1000"])
        assert doc["alpha"] == "1/3"
        zeta3 = sum(1 / k ** 3 for k in range(1, 200_000))
        assert doc["closed_form"] == pytest.approx(4 / zeta3, rel=1e-6)
        assert doc["value"] == pytest.approx(doc["closed_form"],
                                             rel=4 * doc["tail_rel_bound"])


class TestEquidist:
    def test_classes_and_joint(self, capsys):
        doc = run_json(capsys, ["equidist", "--dim", "1", "--modulus", "3",
                                "--bound", "60", "--class", "1:1",
                                "--box", "0,1;-1,1"])
        assert doc["classes"] == 4
        assert doc["uniform_share"] == 0.25
        shares = [row["share"] for row in doc["per_class"]]
        assert sum(shares) == pytest.approx(1.0)
        assert doc["mu_box"] == 0.5
        assert abs(doc["joint_share"] - doc["predicted_joint"]) < 0.02

    def test_imprimitive_class_rejected(self, capsys):
        code = main(["equidist", "--dim", "1", "--modulus", "4",
                     "--bound", "10", "--class", "2:2"])
        capsys.readouterr()
        assert code == 2


class TestWindow:
    def test_matches_library_report(self, capsys):
        doc = run_json(capsys, ["window", "--variety", "pn", "--dim", "1",
                                "--d1", "1,2", "--bound", "30"])
        w = HeightWindow(variety=variety("pn", 1), box=((1, 2),), scale=30)
        report = count_window(w)
        assert doc["count"] == report.count
        assert doc["fitted"] == pytest.approx(report.fitted)
        assert doc["rel_error"] == pytest.approx(report.rel_error)


    @pytest.mark.parametrize("argv, message", [
        (["--variety", "p1n", "--dim", "2", "--d1", "1,2"],
         "one interval per Picard component"),
        (["--variety", "p1n", "--dim", "2", "--d1", "1,2;1,2",
          "--u", "1,-1"], "dual effective cone"),
        (["--variety", "pn", "--dim", "1", "--d1", "2,1"], "lo < hi"),
    ])
    def test_invalid_window_is_usage_error(self, capsys, argv, message):
        assert main(["window"] + argv + ["--bound", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("heightlab: ")
        assert message in captured.err
        assert "computation failed" not in captured.err


class TestSlopes:
    def write_gram(self, tmp_path, gram):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"gram": gram}))
        return f

    def test_hexagonal_semistable(self, tmp_path, capsys):
        f = self.write_gram(tmp_path, [[2, 1], [1, 2]])
        doc = run_json(capsys, ["slopes", "--gram", str(f)])
        assert doc["semistable"] is True
        assert doc["rank"] == 2
        assert doc["slopes"][0] == pytest.approx(doc["slopes"][1])
        assert doc["slopes"][0] == pytest.approx(-0.25 * math.log(3))

    def test_fraction_entries(self, tmp_path, capsys):
        f = self.write_gram(tmp_path, [["1/4", 0], [0, "1/4"]])
        doc = run_json(capsys, ["slopes", "--gram", str(f)])
        assert doc["semistable"] is True
        assert doc["slopes"][0] == pytest.approx(math.log(2))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_semistable_matches_library(self, tmp_path, capsys, rank):
        rng = np.random.default_rng(11)
        grams = [random_gram(rng, rank) for _ in range(4)]
        grams.append(tuple(tuple(int(i == j) for j in range(rank))
                           for i in range(rank)))
        for g in grams:
            f = self.write_gram(tmp_path, g)
            doc = run_json(capsys, ["slopes", "--gram", str(f)])
            assert doc["semistable"] is is_semistable(EucLattice(g)), g

    def test_not_positive_definite_is_exit_3(self, tmp_path, capsys):
        f = self.write_gram(tmp_path, [[1, 2], [2, 1]])
        assert main(["slopes", "--gram", str(f)]) == 3
        assert "computation failed" in capsys.readouterr().err

    def test_unsupported_rank_is_exit_3(self, tmp_path, capsys):
        g = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
        f = self.write_gram(tmp_path, g)
        assert main(["slopes", "--gram", str(f)]) == 3
        capsys.readouterr()

    def test_missing_file_is_exit_3(self, tmp_path, capsys):
        assert main(["slopes", "--gram", str(tmp_path / "nope.json")]) == 3
        capsys.readouterr()


class TestFreeness:
    def test_statistics(self, capsys):
        doc = run_json(capsys, ["freeness", "--variety", "pn", "--dim", "1",
                                "--bound", "20", "--bins", "10"])
        assert doc["total"] == sum(doc["histogram"])
        # only the coordinate points (0:1), (1:0) have l = 0 on the line
        assert doc["below"]["0.2"] == 2


class TestCurve:
    def make_line(self, tmp_path):
        f = tmp_path / "line.json"
        f.write_text(curve_to_json(line_p2()))
        return f

    def test_splitting(self, tmp_path, capsys):
        doc = run_json(capsys, ["curve", "--file",
                                str(self.make_line(tmp_path)),
                                "--op", "splitting"])
        assert doc["splitting"] == [2, 1]
        assert doc["very_free"] is True
        assert doc["degree_sum"] == 3

    def test_freeness(self, tmp_path, capsys):
        doc = run_json(capsys, ["curve", "--file",
                                str(self.make_line(tmp_path)),
                                "--op", "freeness"])
        assert doc["freeness"] == "2/3"
        assert doc["freeness_float"] == pytest.approx(2 / 3)

    def test_limit(self, tmp_path, capsys):
        doc = run_json(capsys, ["curve", "--file",
                                str(self.make_line(tmp_path)),
                                "--op", "limit",
                                "--heights", "10,100,1000"])
        assert doc["fit_exponent"] == pytest.approx(-1.0, abs=1e-6)
        gaps = [r["gap"] for r in doc["rows"]]
        assert gaps == sorted(gaps, reverse=True)

    def test_alpha_from_branches(self, tmp_path, capsys):
        f = tmp_path / "b.json"
        f.write_text(json.dumps({"branches": [[2, 3]], "d": 4}))
        doc = run_json(capsys, ["curve", "--file", str(f), "--op", "alpha"])
        assert doc["alpha"] == "3/2"

    def test_alpha_without_branches_is_usage_error(self, tmp_path, capsys):
        assert main(["curve", "--file", str(self.make_line(tmp_path)),
                     "--op", "alpha"]) == 2
        capsys.readouterr()


class TestZoom:
    def test_pure_fiber_cloud(self, capsys):
        doc = run_json(capsys, ["zoom", "--variety", "p1n", "--dim", "2",
                                "--center", "0:1,0:1", "--alpha", "1",
                                "--radius", "1", "--bound", "30",
                                "--delta", "1", "--overlay-freeness"])
        assert doc["size"] == 5
        assert doc["fiber_share"] == 1.0
        assert set(doc["freeness"]) == {0.0}

    def test_delta_needs_product(self, capsys):
        assert main(["zoom", "--variety", "pn", "--dim", "1",
                     "--center", "0:1", "--alpha", "1", "--bound", "10",
                     "--delta", "1"]) == 2
        capsys.readouterr()

    def test_bad_center_is_usage_error(self, capsys):
        assert main(["zoom", "--variety", "pn", "--dim", "1",
                     "--center", "0:0", "--alpha", "1",
                     "--bound", "10"]) == 2
        capsys.readouterr()


class TestMotivic:
    def test_homd_terms(self, capsys):
        doc = run_json(capsys, ["motivic", "--op", "homd",
                                "--n", "1", "--d", "1"])
        assert doc["terms"] == [[3, 1], [1, -1]]

    def test_recurrence(self, capsys):
        doc = run_json(capsys, ["motivic", "--op", "recurrence",
                                "--n", "2", "--dmax", "6"])
        assert doc["holds"] is True

    def test_residue_all_ones(self, capsys):
        doc = run_json(capsys, ["motivic", "--op", "residue",
                                "--cutoff", "4"])
        assert doc["terms"] == [[e, 1] for e in range(0, -5, -1)]
        assert doc["cutoff"] == 4

    def test_euler_agreement(self, capsys):
        doc = run_json(capsys, ["motivic", "--op", "euler",
                                "--n", "2", "--cutoff", "12"])
        assert doc["agree"] is True
        assert doc["sum"] == doc["closed_form"]

    def test_stabilize(self, capsys):
        doc = run_json(capsys, ["motivic", "--op", "stabilize", "--n", "1",
                                "--dmax", "8", "--cutoff", "15"])
        assert doc["stable"] is True
        assert doc["levels"] == [15] * 7

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["motivic", "--op", "homd", "--n", "1"]) == 2
        capsys.readouterr()


class TestPlumbing:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["count", "--variety", "pn", "--dim", "1",
                     "--bound", "10", "--no-such-flag"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_provenance_ignores_workers_and_out(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["count", "--variety", "pn", "--dim", "1", "--bound", "12"]
        assert main(base + ["--out", str(a), "--workers", "1"]) == 0
        assert main(base + ["--out", str(b), "--workers", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["zoom", "--variety", "p1n", "--dim", "2", "--center",
                "0:1,0:1", "--alpha", "1/2", "--bound", "25",
                "--format", "csv"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rational_flag_rejected_politely(self, capsys):
        assert main(["count", "--variety", "pn", "--dim", "1",
                     "--bound", "ten"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["count", "--variety", "pn", "--dim", "1", "--bound", "0"],
        ["count", "--variety", "blowup", "--dim", "2", "--bound", "-5"],
        ["equidist", "--dim", "2", "--modulus", "3", "--bound", "0"],
        ["window", "--variety", "pn", "--dim", "1", "--d1", "1,2",
         "--bound=-1/2"],
    ])
    def test_nonpositive_bound_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("heightlab: --bound must be positive")

    @pytest.mark.parametrize("argv, nulls", [
        (["count", "--variety", "blowup", "--dim", "2", "--bound", "1"], 1),
        (["equidist", "--dim", "2", "--modulus", "3", "--bound", "1/2"], 14),
    ])
    def test_undefined_ratios_are_strict_json_null(self, capsys, argv,
                                                   nulls):
        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")

        assert main(argv) == 0
        out = capsys.readouterr().out
        json.loads(out, parse_constant=reject)
        assert out.count("null") == nulls

    def test_version_is_the_package_version(self):
        assert VERSION == heightlab.__version__

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(heightlab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "heightlab", "count", "--variety", "pn",
             "--dim", "1", "--bound", "10"],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": src}, check=False)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["count"] == count_points(
            variety("pn", 1), 10)
