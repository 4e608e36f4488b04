import argparse
import contextlib
import csv
import errno
import hashlib
import importlib
import io
import json
import math
import multiprocessing.process
import os
import pkgutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heightlab
from heightlab import cli
from heightlab.cli import VERSION, main
from heightlab.counting import (
    P1_SHELL_LIMIT,
    _pn_coords,
    _shell_spec,
    bounded_window,
    count_points,
    count_window,
    enum_points,
    partition_leading_ranges,
)
from heightlab.counting import HeightWindow
from heightlab import geomcurve, tamagawa
from heightlab.geomcurve import curve_to_json, is_very_free
from heightlab.lattice import EucLattice, is_semistable
from heightlab.projpoint import Metric, PrimPoint, _canonical_mod, variety
from heightlab.zoomlab import (ZoomConfig, fiber_share, zoom_cloud,
                               zoom_freeness_overlay)

from curve_examples import line_p2, twisted_cubic
from test_counting import reference_joint_class_box_counts
from test_lattice import RANK6_GRAMS, random_gram


def _package_exceptions():
    found = []
    for info in pkgutil.iter_modules(heightlab.__path__):
        mod = importlib.import_module(f"heightlab.{info.name}")
        found += [obj for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == mod.__name__]
    return found


PACKAGE_EXCEPTIONS = _package_exceptions()


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

    def test_blowup_dim_defaults_to_its_only_dimension(self, capsys):
        outs = []
        for dim in ([], ["--dim", "2"]):
            assert main(["count", "--variety", "blowup", *dim,
                         "--bound", "100"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["dim"] == 2
        assert main(["count", "--variety", "blowup", "--dim", "1",
                     "--bound", "100"]) == 2
        assert "blowup is a surface" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--variety", "pn", "--dim", "2", "--bound", "1e30"],
        ["--variety", "pn", "--dim", "2", "--metric", "euclid",
         "--bound", "1e30"],
        ["--variety", "blowup", "--bound", "1e30"],
        ["--variety", "p1n", "--dim", "2", "--bound", "1e30"],
        ["--variety", "p1n", "--dim", "2", "--metric", "euclid",
         "--bound", "1e30"],
        # shell cap 10^8, past the (P^1)^n time guard
        ["--variety", "p1n", "--dim", "2", "--bound", "1e16"],
    ])
    def test_huge_bound_is_usage_error(self, capsys, argv):
        start = time.perf_counter()
        assert main(["count", *argv]) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("heightlab: --bound ")
        assert "too large" in captured.err

    @pytest.mark.parametrize("bound, metric", [
        (10 ** 14, Metric.SUP),      # shell cap isqrt(B) = 10^7
        (10 ** 7, Metric.EUCLID),    # shell cap B = 10^7
    ])
    def test_p1n_shell_limit_is_inclusive(self, bound, metric):
        # checks the cap without building the 10^7-entry table
        w = bounded_window(variety("p1n", 2), bound, metric)
        cli._check_shell_cap(w, bound, P1_SHELL_LIMIT)
        with pytest.raises(cli.UsageError, match="shell table limit"):
            cli._check_shell_cap(w, bound, P1_SHELL_LIMIT - 1)

    def test_pn_dim_still_defaults_to_one(self, capsys):
        doc = run_json(capsys, ["count", "--variety", "pn", "--bound", "10"])
        assert doc["provenance"]["command"] == \
            "count --bound 10 --dim 1 --metric sup --variety pn"


def _point_token(p) -> str:
    """enumerate's token of a point of `enum_points`, from str of each
    coordinate."""
    if isinstance(p, PrimPoint):
        return ":".join(map(str, p.coords))
    return ",".join(":".join(map(str, f.coords)) for f in p)


_TOKEN_WINDOWS = [
    *(bounded_window(variety("pn", n), b, m)
      for n, b in ((1, 30), (2, 9), (3, 4)) for m in Metric),
    # lowest shell above 1 (4 sup, 16 euclid): the sup walk is filtered too
    *(HeightWindow(variety=variety("pn", n), metric=m, box=((2, 5),),
                   scale=2) for n in (1, 2) for m in Metric),
    *(bounded_window(variety(kind, 2), b, m)
      for kind, b in (("p1n", 40), ("blowup", 5)) for m in Metric),
]


class TestEnumerate:
    def test_matches_library_order(self, tmp_path, capsys):
        doc = run_json(capsys, ["enumerate", "--variety", "pn", "--dim", "1",
                                "--bound", "5"])
        w = bounded_window(variety("pn", 1), 5)
        expect = [":".join(map(str, p.coords)) for p in enum_points(w)]
        assert doc["points"] == expect
        assert doc["count"] == len(expect)

    @pytest.mark.parametrize("kind, bound", [("pn", 6), ("p1n", 40)])
    def test_enumerate_builds_no_primpoint(self, monkeypatch, capsys, kind,
                                           bound):
        built = []
        post_init = PrimPoint.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PrimPoint, "__post_init__", counted)
        doc = run_json(capsys, ["enumerate", "--variety", kind, "--dim", "2",
                                "--bound", str(bound)])
        assert doc["count"] > 100
        assert built == []
        # the library enumeration still yields PrimPoints
        w = bounded_window(variety(kind, 2), bound)
        assert sum(1 for _ in enum_points(w)) == doc["count"]
        assert built

    @pytest.mark.parametrize("w", _TOKEN_WINDOWS,
                             ids=lambda w: f"{w.variety.kind}{w.variety.n}-"
                             f"{w.metric.value}-{'box' if w.box else 'ball'}")
    def test_tokens_match_library_points(self, w):
        expect = list(map(_point_token, enum_points(w)))
        assert len(expect) > 3
        assert cli._enum_tokens(w) == expect
        # the leading-range pieces, concatenated, give the same tokens
        pieces = partition_leading_ranges(w, 3)
        assert len(pieces) == 3
        assert [t for r in pieces for t in map(_point_token,
                                                enum_points(w, r))] == expect
        if w.variety.kind == "pn":
            (lo, hi), = _shell_spec(w)[0]
            assert [t for r in pieces for t in map(":".join, _pn_coords(
                w.variety.n, lo, hi, w.metric, r, label=str))] == expect

    def test_workers_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["enumerate", "--variety", "p1n", "--dim", "2",
                     "--bound", "20", "--workers", "1",
                     "--out", str(a)]) == 0
        assert main(["enumerate", "--variety", "p1n", "--dim", "2",
                     "--bound", "20", "--workers", "3",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_enumerate_starts_no_process(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        # bound 20: leading coordinates 0..4; bound 1: only 0 and 1
        for bound in ("20", "1"):
            outs = []
            for workers in ("1", "3", "1000000"):
                assert main(["enumerate", "--variety", "p1n", "--dim", "2",
                             "--bound", bound, "--workers", workers]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        assert main(["enumerate", "--variety", "pn", "--dim", "1",
                     "--bound", "5", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers must be at least 1" in captured.err

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

    @pytest.mark.parametrize("recount", [False, True],
                             ids=["head-kept", "head-recounted"])
    def test_blank_line_in_body_is_a_miss(self, tmp_path, recount):
        # no token is empty, so a blank line marks an edited file, also
        # when the head counts it
        cache = tmp_path / "cache"
        argv = ["enumerate", "--variety", "pn", "--dim", "2", "--bound", "3",
                "--format", "csv", "--cache-dir", str(cache)]
        cold = tmp_path / "cold.csv"
        assert main(argv + ["--out", str(cold)]) == 0
        cached = cache / f"pn2_sup_B3_v{VERSION}.csv"
        whole = cached.read_text()
        lines = whole.split("\n")
        count = len(lines) - 3
        lines.insert(5, "")
        if recount:
            lines[0] = f"# points {count + 1}"
        cached.write_text("\n".join(lines))
        warm = tmp_path / "warm.csv"
        assert main(argv + ["--out", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        assert cached.read_text() == whole

    def test_failed_cache_write_leaves_no_file(self, tmp_path, monkeypatch,
                                              capsys):
        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        cache = tmp_path / "cache"
        monkeypatch.setattr(os, "replace", full_disk)
        assert main(["enumerate", "--variety", "pn", "--dim", "1",
                     "--bound", "3", "--cache-dir", str(cache)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("heightlab: computation failed: ")
        assert list(cache.iterdir()) == []

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

    # recorded while `constant` took its closed form from the assembled
    # constant, with beta 1/2
    @pytest.mark.parametrize("v,metric,closed", [
        ("pn", "sup", 1.6638147450540963),
        ("pn", "euclid", 0.8711713633327203),
        ("blowup", "sup", 0.49276714817233463),
        ("blowup", "euclid", 0.30396355089462035),
    ])
    def test_closed_form_is_frozen(self, capsys, v, metric, closed):
        doc = run_json(capsys, ["constant", "--variety", v, "--dim", "2",
                                "--metric", metric, "--beta", "1/2"])
        assert doc["closed_form"] == closed

    @pytest.mark.parametrize("limit", ["1", "0", "-5"])
    def test_prime_limit_below_two_is_usage_error(self, capsys, limit):
        assert main(["constant", "--variety", "pn", "--dim", "2",
                     "--primes-up-to", limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"heightlab: --primes-up-to must be at "
                                f"least 2, got {limit}\n")

    # 10^8 took 33 s; the refusal comes before any sieve is built
    def test_prime_limit_past_the_cap_is_usage_error(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("primes listed")

        monkeypatch.setattr(tamagawa, "primes_upto", refuse)
        limit = str(tamagawa.PRIME_LIMIT_CAP + 1)
        assert main(["constant", "--variety", "pn", "--dim", "2",
                     "--primes-up-to", limit]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"heightlab: --primes-up-to must be at most "
                                f"100000000, got {limit}\n")

    def test_prime_limit_two_is_the_empty_product(self, capsys):
        doc = run_json(capsys, ["constant", "--variety", "pn", "--dim", "2",
                                "--primes-up-to", "2"])
        assert doc["tau_finite"] == 1.0


class TestReferences:
    """`count` and `window` read their references from the zeta closed form
    alone, never from the truncated Euler product; the frozen values were
    recorded while they still assembled it."""

    @pytest.mark.parametrize("argv,sup,euclid", [
        (["count", "--variety", "pn", "--dim", "1"],
         [1.2158542036432674], [0.9549296585004893]),
        (["count", "--variety", "pn", "--dim", "2"],
         [3.3276294901081926], [1.7423427266654405]),
        (["count", "--variety", "p1n", "--dim", "2"],
         [1.478301444517004], [0.9118906526838612]),
        (["count", "--variety", "blowup"],
         [1.2158542036432674, 0.9855342963446693],
         [0.9549296585004893, 0.6079271017892407]),
        (["window", "--variety", "p1n", "--dim", "2", "--d1", "1,2;1,2",
          "--u", "1,2", "--bound", "10"],
         [13.304713000653036], [8.20701587415475]),
        (["window", "--variety", "blowup", "--d1", "1,2;1,2", "--u", "2,1",
          "--bound", "10"],
         [8.869808667102024], [5.471343916103166]),
    ], ids=["count-pn1", "count-pn2", "count-p1n2", "count-blowup",
            "window-p1n2", "window-blowup"])
    def test_no_euler_product(self, capsys, monkeypatch, argv, sup, euclid):
        def refuse(*args, **kwargs):
            raise RuntimeError("assemble_constant called")

        monkeypatch.setattr(tamagawa, "assemble_constant", refuse)
        monkeypatch.setattr(cli, "assemble_constant", refuse)
        if argv[0] == "count":
            argv = [*argv, "--bound", "20"]
        for metric, want in (("sup", sup), ("euclid", euclid)):
            doc = run_json(capsys, [*argv, "--metric", metric])
            if "exceptional" in doc:
                got = [doc["exceptional"]["reference"],
                       doc["off_exceptional"]["reference"]]
            else:
                got = [doc["reference"]]
            assert got == want


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

    # With the full box every vector is inside, so the joint share is the
    # class share: the class [c] is every unit multiple t c, not only +-c.
    @pytest.mark.parametrize("modulus", [2, 3, 5, 7, 9])
    def test_full_box_joint_share_is_class_share(self, capsys, modulus):
        doc = run_json(capsys, ["equidist", "--dim", "2", "--modulus",
                                str(modulus), "--bound", "40", "--class",
                                "1:1:1", "--box=-1,1;-1,1;-1,1"])
        assert doc["mu_box"] == 1.0
        assert doc["joint_share"] == doc["class_share"]

    @pytest.mark.parametrize("flags, message", [
        (["--modulus", "1"], "--modulus must be at least 2, got 1"),
        (["--modulus", "0"], "--modulus must be at least 2, got 0"),
        (["--dim", "0", "--modulus", "3"], "--dim must be at least 1, got 0"),
    ])
    def test_degenerate_modulus_or_dim_is_usage_error(self, capsys, flags,
                                                       message):
        assert main(["equidist", *flags, "--bound", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"heightlab: {message}\n"

    # box_share and joint_share against the numpy scan of the whole box,
    # whose vectors outside the box give the total independently
    @pytest.mark.parametrize("modulus, cls", [
        (2, "1:0:1"), (7, "1:3:5"), (9, "3:1:0"), (12, "1:5:0")])
    def test_box_shares_match_box_scan(self, capsys, modulus, cls):
        box = "0,1;-1,1;-1,1"
        doc = run_json(capsys, ["equidist", "--dim", "2", "--modulus",
                                str(modulus), "--bound", "12", "--class", cls,
                                "--box", box])
        scan = reference_joint_class_box_counts(
            2, modulus, 12, cli._parse_box(box, "--box"))
        target = tuple(int(x) for x in doc["class"].split(":"))
        vectors = sum(scan.values())
        inside = sum(c for (_, in_box), c in scan.items() if in_box)
        hit = sum(c for (r, in_box), c in scan.items()
                  if in_box and _canonical_mod(r, modulus) == target)
        assert doc["box_share"] == inside / vectors
        assert doc["joint_share"] == hit / vectors

    # refused before any counting: a box the measure rejects, a bound past
    # the shell tables, box walks over too many heights or residues, more
    # classes of P^n(Z/M) than CLASS_LIMIT, and class counts whose work
    # passes CLASS_WORK_LIMIT
    @pytest.mark.parametrize("argv, message", [
        (["--dim", "1", "--modulus", "3", "--bound", "10",
          "--box", "1,0;-1,1"], "--box '1,0;-1,1': empty interval"),
        (["--dim", "2", "--modulus", "3", "--bound", "1e30"], "too large"),
        (["--dim", "2", "--modulus", "3", "--bound", "1e9",
          "--box", "0,1;-1,1;0,1"], "too large: the box walk"),
        (["--dim", "5", "--modulus", "31", "--bound", "10",
          "--box", ";".join(["-1,1"] * 6)], "too large: the box walk"),
        (["--dim", "5", "--modulus", "31", "--bound", "10"],
         "P^5(Z/31) has more than 100000 classes"),
        (["--dim", "2", "--modulus", "300", "--bound", "10"],
         "P^2(Z/300) has more than 100000 classes"),
        (["--dim", "1", "--modulus", str(10 ** 18 + 3), "--bound", "10"],
         "has more than 100000 classes"),
        (["--dim", "1", "--modulus", "30030", "--bound", "10"],
         "the class counts take about 3344302080 products"),
    ])
    def test_out_of_range_fails_fast(self, capsys, argv, message):
        start = time.perf_counter()
        assert main(["equidist", *argv]) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("heightlab: ")
        assert message in captured.err

    def test_imprimitive_class_rejected(self, capsys):
        code = main(["equidist", "--dim", "1", "--modulus", "4",
                     "--bound", "10", "--class", "2:2"])
        capsys.readouterr()
        assert code == 2

    # checked before the class counts, which sieve to the bound
    @pytest.mark.parametrize("flags, message", [
        (["--class", "1:1"],
         "--class needs n + 1 = 3 coordinates on P^2, got 2"),
        (["--class", "1:1:1:1"],
         "--class needs n + 1 = 3 coordinates on P^2, got 4"),
        (["--box", "0,1;-1,1"], "--box needs one interval per coordinate"),
    ])
    def test_arity_is_usage_error(self, capsys, flags, message):
        code = main(["equidist", "--dim", "2", "--modulus", "3",
                     "--bound", "200", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"heightlab: {message}\n"


class TestWindow:
    def test_matches_library_report(self, capsys):
        doc = run_json(capsys, ["window", "--variety", "pn", "--dim", "1",
                                "--d1", "1,2", "--bound", "30"])
        w = HeightWindow(variety=variety("pn", 1), box=((1, 2),), scale=30)
        report = count_window(w)
        assert doc["count"] == report.count
        assert doc["fitted"] == pytest.approx(report.fitted)
        assert doc["rel_error"] == pytest.approx(report.rel_error)

    def test_euclid_product_window_at_scale_300(self, capsys):
        # the second factor's shell values reach 4 * 300^4
        doc = run_json(capsys, ["window", "--variety", "p1n", "--dim", "2",
                                "--metric", "euclid", "--d1", "1,2;1,2",
                                "--u", "1,2", "--bound", "300"])
        assert doc["rel_error"] < 1e-3

    @pytest.mark.parametrize("argv, message", [
        (["--variety", "p1n", "--dim", "2", "--d1", "1,2"],
         "one interval per Picard component"),
        (["--variety", "p1n", "--dim", "2", "--d1", "1,2;1,2",
          "--u", "1,-1"], "dual effective cone"),
        (["--variety", "pn", "--dim", "1", "--d1", "2,1"], "lo < hi"),
        (["--variety", "pn", "--dim", "2", "--d1", "1,2", "--u", "1",
          "--bound", "1e37"], "too large"),
        (["--variety", "p1n", "--dim", "2", "--d1", "1,2;1,2", "--u", "1,2",
          "--bound", "1e37"], "too large"),
    ])
    def test_invalid_window_is_usage_error(self, capsys, argv, message):
        # a --bound in argv comes later and wins
        assert main(["window", "--bound", "10"] + argv) == 2
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

    def test_rank_six_is_strict_json(self, tmp_path, capsys):
        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")

        f = self.write_gram(tmp_path, RANK6_GRAMS[0])
        assert main(["slopes", "--gram", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["rank"] == 6 and len(doc["slopes"]) == 6

    @pytest.mark.parametrize("doc", [{"rows": [[1, 0], [0, 1]]}, 7,
                                     {"gram": 7}, [1, 2], [[1, 0], [0]]],
                             ids=["no-gram", "number", "gram-number",
                                  "flat", "ragged"])
    def test_malformed_gram_is_exit_3(self, tmp_path, capsys, doc):
        f = tmp_path / "g.json"
        f.write_text(json.dumps(doc))
        assert main(["slopes", "--gram", str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("heightlab: computation failed: ")
        assert captured.err.count("\n") == 1

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

    def test_zero_tokens_of_a_unit_minimum(self, tmp_path, capsys):
        # d(1), mu_1 and log lambda_1 are all zero here: the degree and slope
        # print as the int 0, the minimum as the float 0.0
        f = self.write_gram(tmp_path, [[1, 0], [0, 2]])
        assert main(["slopes", "--gram", str(f)]) == 0
        out = capsys.readouterr().out
        for key, token in (("slopes", "0"), ("degrees", "0"), ("minima", "0.0")):
            assert f'"{key}": [\n    {token},\n' in out, key


class TestFreeness:
    def test_statistics(self, capsys):
        doc = run_json(capsys, ["freeness", "--variety", "pn", "--dim", "1",
                                "--bound", "20", "--bins", "10"])
        assert doc["total"] == sum(doc["histogram"])
        # only the coordinate points (0:1), (1:0) have l = 0 on the line
        assert doc["below"]["0.2"] == 2

    @pytest.mark.parametrize("argv, message", [
        (["--variety", "blowup", "--dim", "2"], "not the blown-up plane"),
        (["--variety", "blowup", "--dim", "3"], "blowup is a surface"),
        (["--variety", "pn", "--dim", "0"], "n must be >= 1"),
    ])
    def test_unsupported_variety_is_usage_error(self, capsys, argv, message):
        assert main(["freeness"] + argv + ["--bound", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("heightlab: ")
        assert message in captured.err
        assert "computation failed" not in captured.err

    @pytest.mark.parametrize("variety, bins", [
        ("pn", "0"), ("pn", "-2"), ("p1n", "0"),
    ])
    def test_bins_below_one_is_usage_error(self, capsys, variety, bins):
        assert main(["freeness", "--variety", variety, "--dim", "2",
                     "--bound", "5", "--bins", bins]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"heightlab: --bins must be at least 1, "
                                f"got {bins}\n")


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

    @pytest.mark.parametrize("op", ["splitting", "freeness"])
    def test_one_splitting_type_per_run(self, tmp_path, capsys, monkeypatch, op):
        calls = []
        orig = geomcurve.splitting_type

        def counted(c):
            calls.append(c)
            return orig(c)

        monkeypatch.setattr(geomcurve, "splitting_type", counted)
        monkeypatch.setattr(cli, "splitting_type", counted)
        for c in (line_p2(), twisted_cubic()):
            f = tmp_path / "c.json"
            f.write_text(curve_to_json(c))
            calls.clear()
            doc = run_json(capsys, ["curve", "--file", str(f), "--op", op])
            assert len(calls) == 1
            assert doc["very_free"] is is_very_free(c)

    def test_limit_builds_one_splitting_type(self, tmp_path, capsys,
                                             monkeypatch):
        calls = []
        orig = geomcurve.splitting_type

        def counted(c):
            calls.append(c)
            return orig(c)

        monkeypatch.setattr(geomcurve, "splitting_type", counted)
        monkeypatch.setattr(cli, "splitting_type", counted)
        doc = run_json(capsys, ["curve", "--file",
                                str(self.make_line(tmp_path)),
                                "--op", "limit", "--heights", "10,100"])
        assert len(calls) == 1
        assert doc["geometric_freeness"] == 2 / 3

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

    @pytest.mark.parametrize("op, doc", [
        ("splitting", {"d": 2, "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        ("splitting", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("splitting", {"n": 2, "d": 2, "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1.5]]}),
        ("freeness", {"n": 2, "d": 2.0, "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        ("alpha", {"branches": 5, "d": 3}),
        ("alpha", {"branches": [[1, 1]]}),
        ("alpha", {"branches": [[1, 1.5]], "d": 3}),
        ("alpha", {"branches": [[1, 1]], "d": "3"}),
        ("splitting", {"n": 2, "d": 2, "forms": [[0, 1, 0], [0, 0, 1], [0, 1, 1]]}),
        ("splitting", {"n": 2, "d": 2, "forms": [[1, 1, 0], [0, 1, 1], [1, 2, 1]]}),
        ("freeness", {"n": 2, "d": 2, "forms": [[1, 2, 3], [2, 4, 6], [-1, -2, -3]]}),
    ], ids=["no-n", "list", "float-coefficient", "float-degree",
            "branches-int", "no-d", "float-multiplicity", "string-d",
            "shared-t", "planted-factor", "proportional"])
    def test_malformed_file_is_exit_3(self, tmp_path, capsys, op, doc):
        f = tmp_path / "c.json"
        f.write_text(json.dumps(doc))
        assert main(["curve", "--file", str(f), "--op", op]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("heightlab: computation failed: ")
        assert captured.err.count("\n") == 1


_ZOOM_CASES = [
    ("pn", 1, "1:3", "1", "40", None),
    ("pn", 1, "0:1", "1/2", "60", None),
    ("pn", 2, "-2:-4:6", "1/2", "30", None),
    ("pn", 2, "0:1:3", "1/2", "25", None),
    ("p1n", 2, "1:2,0:1", "1", "60", "1/10"),
    ("p1n", 2, "-1:3,1:2", "1/2", "40", "1/3"),
    ("p1n", 3, "1:2,1:0,-1:2", "1/2", "10", "1/2"),
]


def _parsed_center(kind, text):
    pts = [tuple(int(x) for x in part.split(":")) for part in text.split(",")]
    return pts[0] if kind == "pn" else tuple(pts)


# more zoom inputs for the byte reference, each with the overlay:
# (kind, dim, center, alpha, radius, bound, metric, delta)
_ZOOM_WIDER_CASES = [
    # (P^1)^3: three factor positions gathered into each row
    ("p1n", 3, "1:2,1:3,2:3", "1/2", "2", "12", "sup", "1/4"),
    # an empty cloud
    ("p1n", 2, "7:9,7:9", "3", "1", "3", "sup", "1/10"),
    ("pn", 1, "2:5", "1", "3", "50", "euclid", None),
    ("pn", 3, "1:2:3:4", "1/2", "2", "6", "sup", None),
    # the benchmark's two zoom inputs
    ("p1n", 2, "1:2,1:2", "1", "40", "373", "euclid", "1/10"),
    ("pn", 2, "1:2:3", "1/2", "1", "30", "sup", None),
]


class TestZoom:
    @pytest.mark.parametrize("metric", ["sup", "euclid"])
    @pytest.mark.parametrize("kind, dim, center, alpha, bound, delta",
                             _ZOOM_CASES,
                             ids=[f"{c[0]}{c[1]}-{c[2]}-{c[3]}"
                                  for c in _ZOOM_CASES])
    def test_output_matches_fraction_reference(self, capsys, metric, kind,
                                               dim, center, alpha, bound,
                                               delta):
        """Every JSON and CSV byte equals a reference formed point by point
        from the cloud's Fraction chart values: strings through `_num`,
        rescaled floats as float(y) * B^alpha."""
        argv = ["zoom", "--variety", kind, "--dim", str(dim),
                f"--center={center}", "--alpha", alpha, "--radius", "2",
                "--bound", bound, "--metric", metric, "--overlay-freeness"]
        if delta is not None:
            argv += ["--delta", delta]
        cloud = zoom_cloud(ZoomConfig(
            variety=variety(kind, dim), center=_parsed_center(kind, center),
            alpha=Fraction(alpha), R=2, B=Fraction(bound),
            metric=Metric(metric)))
        assert cloud.size > 3
        assert all(type(y) is Fraction for ys in cloud.chart for y in ys)
        if kind == "pn":
            tokens = [":".join(map(str, p.coords)) for p in cloud.points]
        else:
            tokens = [",".join(":".join(map(str, f)) for f in pt)
                      for pt in cloud.points]
        scale = float(Fraction(bound)) ** float(Fraction(alpha))
        overlay = list(zoom_freeness_overlay(cloud))
        expect = {
            "points": tokens,
            "chart": [[str(cli._num(y)) for y in ys] for ys in cloud.chart],
            "rescaled": [[float(y) * scale for y in ys] for ys in cloud.chart],
            "heights": list(cloud.heights),
            "freeness": overlay,
        }
        if delta is not None:
            expect["fiber_share"] = fiber_share(cloud, Fraction(delta))
        assert main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert {k: doc[k] for k in expect} == expect
        doc.update(expect)
        assert out == json.dumps(doc, indent=2, allow_nan=False) + "\n"

        assert main(argv + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        head = out.split("\n", 2)[:2]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["point", "height", "freeness"])
        writer.writerows(zip(tokens, cloud.heights, overlay))
        assert out == "\n".join(head) + "\n" + buf.getvalue()

    @pytest.mark.parametrize(
        "kind, dim, center, alpha, radius, bound, metric, delta",
        _ZOOM_WIDER_CASES,
        ids=[f"{c[0]}{c[1]}-{c[2]}-{c[3]}-B{c[5]}" for c in _ZOOM_WIDER_CASES])
    def test_wider_output_matches_fraction_reference(
            self, capsys, kind, dim, center, alpha, radius, bound, metric,
            delta):
        """The reference of `test_output_matches_fraction_reference` on
        more inputs: every JSON and CSV byte, formed point by point."""
        argv = ["zoom", "--variety", kind, "--dim", str(dim),
                f"--center={center}", "--alpha", alpha, "--radius", radius,
                "--bound", bound, "--metric", metric, "--overlay-freeness"]
        if delta is not None:
            argv += ["--delta", delta]
        cloud = zoom_cloud(ZoomConfig(
            variety=variety(kind, dim), center=_parsed_center(kind, center),
            alpha=Fraction(alpha), R=Fraction(radius), B=Fraction(bound),
            metric=Metric(metric)))
        if kind == "pn":
            tokens = [":".join(map(str, p.coords)) for p in cloud.points]
        else:
            tokens = [",".join(":".join(map(str, f)) for f in pt)
                      for pt in cloud.points]
        scale = float(Fraction(bound)) ** float(Fraction(alpha))
        overlay = list(zoom_freeness_overlay(cloud))
        expect = {
            "size": cloud.size,
            "points": tokens,
            "chart": [[str(cli._num(y)) for y in ys] for ys in cloud.chart],
            "rescaled": [[float(y) * scale for y in ys] for ys in cloud.chart],
            "heights": list(cloud.heights),
            "freeness": overlay,
        }
        if delta is not None:
            expect["fiber_share"] = (fiber_share(cloud, Fraction(delta))
                                     if cloud.size else None)
        assert main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert {k: doc[k] for k in expect} == expect
        doc.update(expect)
        assert out == json.dumps(doc, indent=2, allow_nan=False) + "\n"

        assert main(argv + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        head = out.split("\n", 2)[:2]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["point", "height", "freeness"])
        writer.writerows(zip(tokens, cloud.heights, overlay))
        assert out == "\n".join(head) + "\n" + buf.getvalue()

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

    def test_empty_cloud_has_null_fiber_share(self, capsys):
        # the window around 7/9 at alpha 3 holds no point of height <= 3
        argv = ["zoom", "--variety", "p1n", "--dim", "2",
                "--center", "7:9,7:9", "--alpha", "3", "--bound", "3"]
        assert run_json(capsys, argv)["size"] == 0
        doc = run_json(capsys, argv + ["--delta", "1/10"])
        assert doc["size"] == 0
        assert doc["delta"] == "1/10"
        assert doc["fiber_share"] is None

    @pytest.mark.parametrize("delta", ["0", "-1/2"])
    def test_nonpositive_delta_is_usage_error(self, capsys, delta):
        assert main(["zoom", "--variety", "p1n", "--dim", "2",
                     "--center", "1:2,1:2", "--alpha", "1", "--bound", "30",
                     f"--delta={delta}"]) == 2
        assert "--delta must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--variety", "p1n", "--dim", "2", "--center", "1:2,1:2",
          "--alpha", "200", "--radius", "1", "--bound", "370"], "--alpha"),
        (["--variety", "pn", "--dim", "1", "--center", "1:2", "--alpha", "1",
          "--radius", "1e400", "--bound", "5"], "--radius"),
    ], ids=["rescaling", "window"])
    def test_float_overflow_is_usage_error(self, capsys, argv, flag):
        assert main(["zoom"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"heightlab: {flag} ")
        assert "past the float range" in captured.err

    def test_one_factor_product_zoom_is_the_library_cloud(self, capsys):
        # a one-factor center is a tuple of one factor, not a bare pair
        doc = run_json(capsys, ["zoom", "--variety", "p1n", "--dim", "1",
                                "--center", "1:2", "--alpha", "1",
                                "--radius", "2", "--bound", "30",
                                "--overlay-freeness", "--delta", "1/10"])
        cloud = zoom_cloud(ZoomConfig(variety=variety("p1n", 1),
                                      center=((1, 2),), alpha=1, R=2, B=30))
        assert doc["size"] == cloud.size > 1
        assert doc["points"] == [":".join(map(str, p)) for (p,) in cloud.points]
        assert doc["chart"] == [[str(y)] for (y,) in cloud.chart]
        assert doc["rescaled"] == [list(ys) for ys in cloud.rescaled]
        assert doc["heights"] == list(cloud.heights)
        assert doc["freeness"] == list(zoom_freeness_overlay(cloud))
        assert doc["fiber_share"] == fiber_share(cloud, Fraction(1, 10))

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

    def test_memory_error_is_exit_3_with_one_line(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "count_blowup", exhausted)
        assert main(["count", "--variety", "blowup", "--dim", "2",
                     "--bound", "1e12"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "heightlab: computation failed: out of memory\n"

    def test_package_exceptions_are_found(self):
        names = {exc.__name__ for exc in PACKAGE_EXCEPTIONS}
        assert {"InvalidPoint", "UnsupportedRank", "NotPositiveDefinite",
                "NotAMorphism", "ConstantMap", "UsageError"} <= names

    @pytest.mark.parametrize("exc", PACKAGE_EXCEPTIONS + [json.JSONDecodeError],
                             ids=lambda exc: exc.__name__)
    def test_package_exception_exits_3_and_usage_error_2(self, capsys,
                                                         monkeypatch, exc):
        # COMPUTE_ERRORS names ValueError, not each class; UsageError is a
        # ValueError too and must still be caught first
        assert issubclass(exc, ValueError)
        err = exc("boom", "", 0) if exc is json.JSONDecodeError else exc("boom")

        def failing(*args, **kwargs):
            raise err

        monkeypatch.setattr(cli, "count_blowup", failing)
        code = main(["count", "--variety", "blowup", "--dim", "2",
                     "--bound", "10"])
        captured = capsys.readouterr()
        assert captured.out == ""
        if exc is cli.UsageError:
            assert (code, captured.err) == (2, "heightlab: boom\n")
        else:
            assert code == 3
            assert captured.err.startswith("heightlab: computation failed: boom")

    @pytest.mark.parametrize("argv, flag, value", [
        (["zoom", "--variety", "pn", "--dim", "2", "--alpha", "1",
          "--bound", "10"], "--center", "-2:-4:6"),
        (["window", "--variety", "p1n", "--dim", "2", "--d1", "1,2;1,2",
          "--bound", "10"], "--u", "-1,3"),
        (["window", "--variety", "pn", "--dim", "1", "--bound", "10"],
         "--d1", "-1,2"),
        (["equidist", "--dim", "1", "--modulus", "3", "--bound", "10"],
         "--class", "-1:1"),
        (["equidist", "--dim", "1", "--modulus", "3", "--bound", "10"],
         "--box", "-1,1;0,1"),
    ])
    def test_value_may_start_with_a_dash(self, capsys, argv, flag, value):
        # the provenance prints `flag value`, so that spelling must run too
        runs = []
        for spelling in ([flag, value], [f"{flag}={value}"]):
            code = main(argv + spelling)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert "expected one argument" not in runs[0][2]
        if runs[0][0] == 0:
            assert f"{flag} {value}" in runs[0][1]

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
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            check=False)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["count"] == count_points(
            variety("pn", 1), 10)


class TestParserReuse:
    def argvs(self, tmp_path):
        gram = tmp_path / "g.json"
        gram.write_text(json.dumps({"gram": [[2, 1, 0], [1, 3, 1], [0, 1, 4]]}))
        return [
            ["count", "--variety", "pn", "--dim", "2", "--metric", "euclid",
             "--bound", "20"],
            ["count", "--variety", "pn", "--dim", "2", "--bound", "20"],
            ["slopes", "--gram", str(gram)],
            ["count", "--variety", "nope", "--bound", "5"],
            ["window", "--variety", "pn", "--dim", "1", "--d1", "1,2",
             "--bound", "30"],
            ["zoom", "--variety", "p1n", "--dim", "2", "--center", "0:1,0:1",
             "--alpha", "1", "--bound", "30", "--delta", "1"],
            ["count", "--variety", "pn", "--dim", "3", "--bound", "5"],
            ["count", "--variety", "blowup", "--bound", "10"],
        ]

    def run(self, argvs, fresh):
        runs = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            runs.append((code, out.getvalue(), err.getvalue()))
        return runs

    def test_one_parser_prints_what_fresh_parsers_print(self, tmp_path):
        argvs = self.argvs(tmp_path)
        fresh = self.run(argvs, fresh=True)
        cli.build_parser.cache_clear()
        shared = self.run(argvs, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 2, 0, 0, 0, 0]
        assert "invalid choice: 'nope'" in shared[3][2]

    def test_flags_do_not_leak_between_calls(self, tmp_path):
        runs = self.run(self.argvs(tmp_path), fresh=False)
        docs = [json.loads(out) if code == 0 else None for code, out, _ in runs]
        assert docs[0]["metric"] == "euclid"
        assert docs[1]["metric"] == "sup"
        assert docs[6]["dim"] == 3
        assert docs[7]["dim"] == 2

    # --help of the program and of each command, and usage errors, as the
    # parser that built every command's arguments up front printed them
    RECORDED = json.loads((Path(__file__).parent / "cli_help.json").read_text())

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "shared"])
    def test_help_and_usage_errors_are_unchanged(self, monkeypatch, fresh):
        monkeypatch.setenv("COLUMNS", str(self.RECORDED["columns"]))
        cases = [(line, {"code": 0, "stdout": text, "stderr": ""})
                 for line, text in self.RECORDED["help"].items()]
        cases += self.RECORDED["errors"].items()
        assert len(cases) == 21
        cli.build_parser.cache_clear()
        for line, want in cases:
            argv = line.split()
            for _ in range(2):
                if fresh:
                    cli.build_parser.cache_clear()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
                got = {"code": code, "stdout": out.getvalue(),
                       "stderr": err.getvalue()}
                assert got == want, line

    def test_a_run_fills_only_its_command(self):
        cli.build_parser.cache_clear()
        assert main(["motivic", "--op", "pn", "--n", "1"]) == 0
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        filled = {name for name, p in sub.choices.items()
                  if len(p._actions) > 1}
        assert filled == {"motivic"}

    def test_import_does_not_build_the_parser(self):
        src = str(Path(heightlab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import heightlab.cli as c; print(c.build_parser.cache_info().misses)"],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


_BOUNDS = st.one_of(
    st.integers(-5, 40).map(str),
    st.fractions(min_value=-5, max_value=40, max_denominator=9).map(str))


@st.composite
def _window_flags(draw, kind, dim):
    """--d1 and --u strings: mostly one piece per Picard component, at
    times one too few or too many, with malformed and out-of-range pieces
    mixed in.  Ends and directions stay small (on P^n ends <= 1 and
    u <= 1), so that every drawn window counts in under a second."""
    rank = {"pn": 1, "p1n": dim, "blowup": 2}[kind]
    ends = ["1/2,1", "1/3,2/3", "2/3,1"] * 5 + ["1,1/2", "0,1", "a,b", "1"]
    dirs = ["1/2", "1"] * 5 + ["0", "-1", "x"]
    if kind != "pn":
        ends += ["1,3/2", "2/3,3/2"] * 5
        dirs += ["3/2"] * 5

    def pieces(options):
        k = draw(st.sampled_from([rank] * 8 + [rank - 1, rank + 1]))
        return draw(st.lists(st.sampled_from(options), min_size=max(k, 0),
                             max_size=max(k, 0)))

    d1 = ";".join(pieces(ends))
    u = ",".join(pieces(dirs)) if draw(st.booleans()) else None
    return d1, u


# enumerate lists every point, so its bounds stay small
_SMALL_BOUNDS = st.one_of(
    st.integers(-2, 6).map(str),
    st.fractions(min_value=-2, max_value=6, max_denominator=5).map(str))


@settings(deadline=None, max_examples=60)
@given(command=st.sampled_from(["count", "window", "enumerate"]),
       kind=st.sampled_from(["pn", "p1n", "blowup"]),
       dim=st.integers(0, 3), metric=st.sampled_from(["sup", "euclid"]),
       bound=_BOUNDS, data=st.data())
def test_cli_fuzz_exit_codes_and_strict_json(command, kind, dim, metric,
                                             bound, data):
    if command == "enumerate":
        bound = data.draw(_SMALL_BOUNDS)
    argv = [command, "--variety", kind, f"--dim={dim}", "--metric", metric,
            f"--bound={bound}"]
    if command == "window":
        d1, u = data.draw(_window_flags(kind, dim))
        argv.append(f"--d1={d1}")
        if u is not None:
            argv.append(f"--u={u}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "", argv
    if command == "enumerate" and code == 0:
        counted = io.StringIO()
        with contextlib.redirect_stdout(counted):
            assert main(["count", *argv[1:]]) == 0
        assert doc["count"] == json.loads(counted.getvalue())["count"], argv


_ENTRIES = st.one_of(st.integers(-3, 3), st.floats(-3, 3, width=16),
                    st.sampled_from(["1/2", "x", None, True]))


@st.composite
def _gram_docs(draw):
    """Gram files: square or ragged rows of small entries, bare or under
    'gram' or a wrong key, with the odd non-list in place of a row."""
    size = draw(st.integers(0, 3))
    rows = [draw(st.lists(_ENTRIES, min_size=size - 1, max_size=size + 1)
                 if draw(st.integers(0, 9)) else _ENTRIES)
            for _ in range(size)]
    if draw(st.booleans()):  # a well-formed rank-size Gram now and then
        rows = [[2 * (i == j) - (abs(i - j) == 1) * draw(st.integers(0, 1))
                 for j in range(size)] for i in range(size)]
    return draw(st.sampled_from([rows, {"gram": rows}, {"rows": rows},
                                 draw(_ENTRIES)]))


@st.composite
def _curve_docs(draw):
    """Curve and branch files: forms of the declared degree or off by one,
    an all-zero form, float coefficients, and keys dropped or replaced."""
    n, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    forms = [draw(st.lists(st.integers(-2, 2), min_size=d + draw(st.integers(0, 1)),
                           max_size=d + 1)) for _ in range(n + 1)]
    if forms and draw(st.booleans()):
        forms[-1] = [0] * len(forms[-1])
    if forms and draw(st.integers(0, 4)) == 0:
        forms[0] = [float(c) + 0.5 * draw(st.booleans()) for c in forms[0]]
    doc = {"n": n, "d": d, "forms": forms,
           "branches": draw(st.lists(st.lists(st.integers(-1, 3), min_size=1,
                                              max_size=3), max_size=3))}
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        doc[key] = draw(st.one_of(_ENTRIES, st.just([])))
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        del doc[key]
    return draw(st.sampled_from([doc, forms, doc.get("d")]))


@settings(deadline=None, max_examples=150)
@given(doc=st.one_of(_gram_docs().map(lambda g: ("slopes", g)),
                     _curve_docs().map(lambda c: ("curve", c))),
       op=st.sampled_from(["splitting", "freeness", "alpha"]))
def test_file_fuzz_exit_codes_and_no_traceback(tmp_path_factory, doc, op):
    command, body = doc
    path = tmp_path_factory.mktemp("doc") / "in.json"
    path.write_text(json.dumps(body))
    argv = ([command, "--gram", str(path)] if command == "slopes"
            else [command, "--file", str(path), "--op", op])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (body, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "", body
        assert err.getvalue().count("\n") == 1, body


def test_zoom_bytes_match_the_benchmark_reference():
    # every zoom input of the benchmark prints the bytes it recorded; the
    # reference file is only read
    ref = json.loads((Path(__file__).parents[1] / "perfbench"
                      / "reference.json").read_text())
    lines = [k for k in ref if k.split()[0] == "zoom"]
    assert len(lines) == 20
    for line in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(line.split())
        assert code == ref[line]["rc"] == 0, line
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
            ref[line]["sha"], line


def test_slopes_curve_motivic_bytes_match_the_benchmark_reference(tmp_path, monkeypatch):
    # every slopes, curve and motivic input of the benchmark prints the
    # bytes it recorded; a key lists its input files as " |name=text"
    ref = json.loads((Path(__file__).parents[1] / "perfbench"
                      / "reference.json").read_text())
    keys = [k for k in ref if k.split()[0] in ("slopes", "curve", "motivic")]
    assert len(keys) == 189
    monkeypatch.chdir(tmp_path)
    for key in keys:
        line, *files = key.split(" |")
        for spec in files:
            name, text = spec.split("=", 1)
            (tmp_path / name).write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(line.split())
        assert code == ref[key]["rc"] == 0, line
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
            ref[key]["sha"], line


# ---------------------------------------------------------------------------
# the JSON renderer writes json.dumps(indent=2)'s bytes


def test_render_contract_for_every_command(tmp_path, capsys):
    # whatever renders it, JSON output is json.dumps(indent=2) of itself
    gram = tmp_path / "g.json"
    gram.write_text(json.dumps({"gram": [[2, 1, 0], [1, 3, 1], [0, 1, 4]]}))
    line = tmp_path / "line.json"
    line.write_text(curve_to_json(line_p2()))
    argvs = [
        ["count", "--variety", "blowup", "--bound", "30"],
        ["enumerate", "--variety", "p1n", "--dim", "2", "--bound", "4"],
        ["constant", "--variety", "pn", "--dim", "2", "--primes-up-to", "50"],
        ["equidist", "--dim", "2", "--modulus", "3", "--bound", "12",
         "--class", "1:1:1", "--box", "0,1;-1,1;-1,1"],
        ["window", "--variety", "p1n", "--dim", "2", "--d1", "1,2;1,2",
         "--u", "1,2", "--bound", "10"],
        ["slopes", "--gram", str(gram)],
        ["freeness", "--variety", "pn", "--dim", "2", "--bound", "6"],
        ["curve", "--file", str(line), "--op", "limit", "--heights", "10,100"],
        ["zoom", "--variety", "p1n", "--dim", "2", "--center", "1:2,0:1",
         "--alpha", "1", "--radius", "3", "--bound", "40",
         "--overlay-freeness", "--delta", "1/3"],
        ["motivic", "--op", "euler", "--n", "2", "--cutoff", "6"],
    ]
    assert {a[0] for a in argvs} == {
        "count", "enumerate", "constant", "equidist", "window", "slopes",
        "freeness", "curve", "zoom", "motivic"}
    for argv in argvs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n" \
            == out, argv


_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
                  st.none(), st.floats(allow_nan=False, allow_infinity=False))
_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(-2 ** 70, 2 ** 70), st.just(10 ** 300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, -1e308]),
    st.text(max_size=6),
    st.sampled_from(["", "\"", "\\", "\n", "\x00\x1f\x7f", "é€𝄞", "a\"b\nc"]))
# lists of rows: empty, one-element and ragged rows, lists and tuples
_ROWS = st.lists(st.lists(_SCALARS, max_size=4)
                 | st.lists(_SCALARS, max_size=3).map(tuple), max_size=5)
_VALUES = st.recursive(
    _SCALARS | _ROWS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=30)
_RUN = cli.RunConfig(command="render", params=(), format="json", out=None,
                     cache_dir=None, seed=0)


def _doc(data):
    doc = {"provenance": {"command": "render", "seed": 0,
                          "version": VERSION}}
    doc.update(data)
    return doc


@settings(deadline=None, max_examples=120)
@given(st.dictionaries(st.text(max_size=4), _VALUES, max_size=6))
def test_render_equals_json_dumps_indent_2(data):
    assert cli._render(_RUN, data, None) == \
        json.dumps(_doc(data), indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("data", [
    {"x": math.nan}, {"x": [1, 2, -math.inf]}, {"x": [[1.5], [math.inf]]},
    {"x": {"y": [0, {"z": math.nan}]}}, {"x": {math.inf: 1}},
    {"x": [[1, [math.nan]]]}], ids=repr)
def test_render_rejects_nan_and_inf_as_json_dumps_does(data):
    with pytest.raises(ValueError) as want:
        json.dumps(_doc(data), indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._render(_RUN, data, None)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Gathered: a list the renderer writes from per-factor columns


def _gathered_items(obj):
    """json.dumps's default in these tests: the items a Gathered value
    stands for, built value by value."""
    if not isinstance(obj, cli.Gathered):
        raise TypeError(f"not JSON serializable: {obj!r}")
    return [[col[i] for i in pos for col in obj.columns] for pos in obj.index]


_COLUMN_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308]),
    st.text(max_size=4),
    st.sampled_from(["", "\"", "\\", "\n", "\x00\x1f", "é€𝄞", "-3/7"]))


@st.composite
def _gathered(draw):
    """0-3 positions per item over 1-4 factors, 1-3 values per factor, 0-5
    items."""
    factors = draw(st.integers(1, 4))
    positions = draw(st.integers(0, 3))
    width = draw(st.integers(1, 3))
    columns = [draw(st.lists(_COLUMN_VALUES, min_size=factors,
                             max_size=factors)) for _ in range(width)]
    pos = st.integers(0, factors - 1)
    index = draw(st.lists(st.tuples(*[pos] * positions), max_size=5))
    return cli.Gathered(index, columns)


# Gathered values at the top of the document and inside dicts and lists,
# so rendered at several pads, beside other values
_GATHERED_VALUES = st.recursive(
    _gathered() | _SCALARS | _ROWS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@settings(deadline=None, max_examples=150)
@given(st.dictionaries(st.text(max_size=4), _GATHERED_VALUES, max_size=4))
def test_gathered_renders_as_json_dumps_of_its_items(data):
    assert cli._render(_RUN, data, None) == json.dumps(
        _doc(data), indent=2, allow_nan=False, default=_gathered_items) + "\n"


@settings(deadline=None, max_examples=100)
@given(_gathered())
def test_gathered_items_and_dump_at_the_top(g):
    assert list(map(list, g.items())) == _gathered_items(g)
    assert cli._dump(g, "\n") == json.dumps(_gathered_items(g), indent=2)


@pytest.mark.parametrize("data", [
    {"x": cli.Gathered([(0,), (1,)], [[1.5, math.nan]])},
    {"x": [1, cli.Gathered([(0, 1)], [[0.5, -math.inf], ["a", "b"]])]},
    {"x": {"y": cli.Gathered([(1,), (0,)], [[math.inf, 2.0]])}},
    {"x": [[cli.Gathered([(0, 0), (1, 0)], [[1.0, math.nan]])]]},
    {"x": cli.Gathered([(1, 0, 1)], [[1, 2], [math.nan, 3.0]])}],
    ids=repr)
def test_gathered_rejects_nan_and_inf_as_json_dumps_does(data):
    with pytest.raises(ValueError) as want:
        json.dumps(_doc(data), indent=2, allow_nan=False,
                   default=_gathered_items)
    with pytest.raises(ValueError) as got:
        cli._render(_RUN, data, None)
    assert str(got.value) == str(want.value)


def test_gathered_renders_around_an_unused_nan():
    # the column's NaN stands in no item, so the output is that of the items
    data = {"x": cli.Gathered([(0,), (0,)], [[0.25, math.nan]])}
    assert cli._render(_RUN, data, None) == json.dumps(
        _doc({"x": [[0.25], [0.25]]}), indent=2, allow_nan=False) + "\n"
