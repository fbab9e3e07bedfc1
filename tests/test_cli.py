"""Command-line interface: dispatch, formats, cache, exit codes."""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import mpmath
import pytest

import icewall
from icewall import checks, cli
from icewall.cli import main, parse_complex, parse_weights
from icewall.determinants import default_bits
from icewall.logscale import LogScaledValue
from icewall.params import ModelParams


ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused_record(capsys, *argv):
    """The one record of `compute *argv --format json`, which must be refused
    (exit 1) with a reason that says why."""
    code, out, err = run(capsys, "compute", *argv, "--format", "json")
    assert code == 1, err
    rec, = json.loads(out)["records"]
    assert rec["status"] == "refused" and rec["reason"], rec
    assert rec["log_abs_z"] is rec["phase"] is rec["f_n"] is None
    return rec


def job_args(rep, n):
    """The parsed arguments of `compute --rep rep --n n`, defaults elsewhere."""
    return cli.build_parser().parse_args(["compute", "--rep", rep, "--n", str(n)])


def entry_path(cache: Path, rep: str, n: int, args=None) -> Path:
    """Where a cache directory keeps the entry of a job, in this version's
    directory, which this makes; `args` defaults to `job_args(rep, n)`."""
    here = cache / icewall.__version__
    here.mkdir(parents=True, exist_ok=True)
    return here / (cli.cache_key(rep, n, args or job_args(rep, n)) + ".json")


def entries(cache: Path) -> list:
    """The names of the entries a cache directory holds, all in this version's
    directory, which is all it may hold."""
    here = cache / icewall.__version__
    assert [p.name for p in cache.iterdir()] in ([], [here.name])
    return sorted(p.name for p in here.iterdir()) if here.exists() else []


def test_parse_complex():
    assert parse_complex("0.9") == 0.9 + 0j
    assert parse_complex("0.9,-0.2") == complex(0.9, -0.2)
    for text in ("1,2,3", "nan", "inf", "0.9,nan"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(text)
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--rep", "all", "--n", "3", "--lambda", "nan"])
    assert exc.value.code == 2


def test_parse_weights():
    assert parse_weights("1,1,1,1,1,1") == (1.0,) * 6
    for text in ("1,2,3", "nan,1,1,1,1,1", "inf,1,1,1,1,1", "0.9,nan,1,1,1,1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_weights(text)


def test_compute_all_cross_checks(capsys):
    code, out, _ = run(capsys, "compute", "--n", "3",
                       "--lambda", "0.9", "--eta", "0.3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2
    assert {r["status"] for r in doc["records"]} == {"ok"}
    reps = {r["representation"] for r in doc["records"]}
    assert {"enumerate", "dp", "hankel", "wdet", "gauss",
            "fredholm-disordered"} <= reps
    assert doc["summary"]["pass"]
    assert doc["summary"]["max_pairwise_rel_deviation"] < 1e-8


def test_compute_enumerate_counts(capsys):
    code, out, _ = run(capsys, "compute", "--n", "5", "--rep", "enumerate",
                       "--weights", "1,1,1,1,1,1", "--format", "json")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["config_count"] == 429
    assert rec["log_abs_z"] == pytest.approx(math.log(429))


def test_compute_single_vertex_value(capsys):
    code, out, _ = run(capsys, "compute", "--n", "1", "--rep", "hankel",
                       "--lambda", "0.9", "--eta", "0.3", "--format", "json")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["log_abs_z"] == pytest.approx(math.log(math.sin(0.6)))


def test_singular_parameters_exit_code(capsys):
    code, _, err = run(capsys, "compute", "--n", "2", "--rep", "wdet",
                       "--lambda", "0.3", "--eta", "0.3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("compute", "--rep", "wdet", "--n", "0"),
    ("compute", "--rep", "hankel", "--n", "-2"),
    ("compute", "--rep", "wdet", "--n", "3", "--bits", "0"),
    ("sweep", "--n", "5", "--n-max", "3"),
    # refused by the parser, not point by point (which made the sweep exit 1)
    ("sweep", "--rep", "wdet", "--n", "1", "--n-max", "2", "--bits", "63"),
    # a NaN or negative tolerance failed every cross-check; inf passed any
    ("compute", "--rep", "all", "--n", "3", "--tol", "nan"),
    ("compute", "--rep", "all", "--n", "3", "--tol", "-1"),
    ("compute", "--rep", "all", "--n", "3", "--tol", "inf"),
    ("sweep", "--n", "1", "--n-max", "20000"),
    # sweep runs no cross-check, so it takes no tolerance
    ("sweep", "--n-max", "3", "--tol", "1e-6"),
])
def test_bad_size_bits_or_range_exit_code(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:   # the parser refused the value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err


def test_sweep_csv_schema(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--n", "1", "--n-max", "4",
                     "--rep", "wdet", "--format", "csv",
                     "--out", str(out_file))
    assert code == 0
    raw = out_file.read_bytes().decode()
    assert "\r\n" in raw  # RFC-4180 line endings
    rows = list(csv.DictReader(raw.splitlines()))
    assert [int(r["n"]) for r in rows] == [1, 2, 3, 4]
    for r in rows:
        n = int(r["n"])
        assert float(r["f_n"]) == pytest.approx(
            -float(r["log_abs_z"]) / n ** 2)


def test_sweep_monotone_at_ice_point(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "1", "--n-max", "6",
                       "--rep", "wdet", "--lambda", str(math.pi / 2),
                       "--eta", str(math.pi / 6), "--format", "json")
    assert code == 0
    logs = [r["log_abs_z"] for r in json.loads(out)["records"]]
    assert all(b > a for a, b in zip(logs, logs[1:]))


@pytest.mark.parametrize("route", ["hankel", "enumerate"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cache_round_trip(capsys, tmp_path, monkeypatch, fmt, route):
    # a hit re-emits the stored record byte for byte in every format; the
    # enumerate record carries a field of its own, which text prints
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    cache = tmp_path / "cache"
    f1, f2 = tmp_path / "a.out", tmp_path / "b.out"
    args = ["sweep", "--n", "1", "--n-max", "3", "--rep", route,
            "--format", fmt, "--cache", str(cache)]
    code, _, err = run(capsys, *args, "--out", str(f1))
    assert code == 0 and "0 hits, 3 computed" in err
    code, _, err = run(capsys, *args, "--out", str(f2))
    assert code == 0 and "3 hits, 0 computed" in err
    assert f1.read_bytes() == f2.read_bytes()
    if route == "enumerate" and fmt == "text":
        assert "{'config_count': 7}" in f2.read_text()


def test_sweep_failed_point_is_not_cached(capsys, tmp_path, monkeypatch):
    # enumeration stops at N=6: the N=7 point is a refused record, exits 1,
    # and is refused again rather than re-emitted from the cache
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    args = ["sweep", "--rep", "enumerate", "--n", "5", "--n-max", "7",
            "--format", "json", "--cache", str(tmp_path)]
    code, out, err = run(capsys, *args)
    assert code == 1 and "0 hits, 3 computed" in err and "1 of 3 points refused" in err
    code, again, err = run(capsys, *args)
    assert code == 1 and "2 hits, 1 computed" in err
    recs = json.loads(again)["records"]
    assert [r["status"] for r in recs] == ["ok", "ok", "refused"]
    assert recs[2]["reason"] == "enumerate supports N <= 6"
    assert recs[2]["error_estimate"] is None and len(entries(tmp_path)) == 2


def test_non_finite_value_is_refused_and_not_cached(capsys, tmp_path, monkeypatch):
    # the Gram matrix would overflow in double precision at Im(lambda) = 360;
    # the Gauss rule's polynomials overflow first, so no matrix is built
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    point = ["--rep", "fredholm-disordered", "--lambda", "0.9,360",
             "--eta", "0.3", "--cache", str(tmp_path)]
    rec = refused_record(capsys, "--n", "3", *point)
    assert rec["reason"].startswith("fredholm-disordered") and rec["error_estimate"] is None
    code, out, _ = run(capsys, "sweep", "--n", "3", "--n-max", "3", *point, "--format", "json")
    assert code == 1 and json.loads(out)["records"] == [dict(rec, elapsed_ms=ANY)]
    assert entries(tmp_path) == []


@pytest.mark.parametrize("log_abs_z", [float("nan"), float("inf")])
def test_non_finite_cache_entry_is_a_miss(capsys, tmp_path, monkeypatch, log_abs_z):
    # a non-finite record stored at the current version's entry (as an
    # older build, which wrote NaN and Infinity, could) is recomputed and re-stored
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    fn = entry_path(tmp_path, "dp", 3)
    bad = dict(cli.record("dp", 3, 0.9 + 0j, 0.3 + 0j, 0.0, 0.0, 0.0, cli.DOUBLE_BITS, [],
                          error_estimate=0.0), log_abs_z=log_abs_z)
    fn.write_text(json.dumps(bad), encoding="utf-8")
    code, out, err = run(capsys, "compute", "--rep", "dp", "--n", "3", "--format", "json",
                         "--cache", str(tmp_path))
    assert code == 0 and "cache hit" not in err
    assert math.isfinite(json.loads(out)["records"][0]["log_abs_z"])
    assert math.isfinite(cli.cache_load(str(fn.parent), fn.stem)["log_abs_z"])


WDET_3 = cli.record("wdet", 3, 0.9 + 0j, 0.3 + 0j, 0.0, 0.0, 0.0, default_bits(3), [],
                    error_estimate=0.0)


@pytest.mark.parametrize("entry", [
    json.dumps(WDET_3)[:40],    # truncated: exited 2 with "Expecting ',' delimiter"
    json.dumps({k: v for k, v in WDET_3.items() if k != "log_abs_z"}),   # a KeyError
    json.dumps({"log_abs_z": 5.0, "phase": 0.0}),   # was re-emitted as a hit
    json.dumps(dict(WDET_3, n=4)),     # another job's record
    json.dumps(dict(WDET_3, representation="hankel")),
    json.dumps(dict(WDET_3, eta=[0.3, 0.1])),
    json.dumps(dict(WDET_3, weights=[2.0] * 6)),   # was re-emitted as a hit
    json.dumps(dict(WDET_3, precision_bits=300)),   # --bits 300's: was re-emitted as a hit
    json.dumps(dict(WDET_3, phase="0")),
    json.dumps([WDET_3]),
    b"\xff\xfe",
], ids=["truncated", "no-log_abs_z", "two-fields", "other-n", "other-route",
        "other-eta", "other-weights", "other-bits", "string-phase", "list", "not-utf8"])
def test_cache_entry_that_is_not_this_jobs_record_is_a_miss(capsys, tmp_path, monkeypatch,
                                                             entry):
    # anything at the entry but a well-formed record of this very job is
    # recomputed, and the entry is replaced by the computed record
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    fn = entry_path(tmp_path, "wdet", 3)
    if isinstance(entry, bytes):
        fn.write_bytes(entry)
    else:
        fn.write_text(entry, encoding="utf-8")
    argv = ["compute", "--rep", "wdet", "--n", "3", "--format", "json",
            "--cache", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 0 and "cache hit" not in err
    rec = json.loads(out)["records"][0]
    assert math.isfinite(rec["log_abs_z"]) and rec["log_abs_z"] != 0.0
    assert json.loads(fn.read_text(encoding="utf-8")) == rec
    code, out, err = run(capsys, *argv)
    assert code == 0 and "cache hit: wdet" in err
    assert json.loads(out)["records"][0] == rec
    assert entries(tmp_path) == [fn.name]


def test_a_weights_record_carries_its_weights(capsys, tmp_path, monkeypatch):
    # a record of --weights 1,...,1 moved to the key of --weights 2,...,2 was
    # a hit there, log|Z| 1.945910149055 where 8.184234774095 is right
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    argv = ["compute", "--rep", "dp", "--n", "3", "--format", "json", "--cache", str(tmp_path)]
    code, out, _ = run(capsys, *argv, "--weights", "1,1,1,1,1,1")
    assert code == 0 and json.loads(out)["records"][0]["weights"] == [1.0] * 6
    entry, = (tmp_path / icewall.__version__).iterdir()
    twos = cli.build_parser().parse_args(argv[:5] + ["--weights", "2,2,2,2,2,2"])
    entry.rename(entry_path(tmp_path, "dp", 3, twos))
    code, out, err = run(capsys, *argv, "--weights", "2,2,2,2,2,2")
    rec, = json.loads(out)["records"]
    assert code == 0 and "cache hit" not in err and rec["weights"] == [2.0] * 6
    assert rec["log_abs_z"] == pytest.approx(8.184234774095, abs=1e-12)


def test_cache_store_leaves_no_partial_entry(tmp_path, monkeypatch):
    # interrupted after the record is written to the temporary file, before
    # the rename: neither that file nor an entry is left
    key = cli.cache_key("dp", 2, job_args("dp", 2))
    rec = cli.record("dp", 2, 0.9 + 0j, 0.3 + 0j, 0.0, 0.0, 0.0, 128, [])

    def interrupted_replace(src, dst):
        assert json.loads(Path(src).read_text(encoding="utf-8")) == rec
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.os, "replace", interrupted_replace)
    with pytest.raises(KeyboardInterrupt):
        cli.cache_store(str(tmp_path), key, rec)
    assert list(tmp_path.iterdir()) == []
    assert cli.cache_load(str(tmp_path), key) is None


def test_directory_at_a_cache_key_is_an_error_not_a_traceback(capsys, tmp_path, monkeypatch):
    # it was an IsADirectoryError traceback from cache_load; the load is now a
    # miss, and the store that follows fails as an error naming the entry
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    entry = entry_path(tmp_path, "wdet", 3)
    entry.mkdir()
    code, out, err = run(capsys, "compute", "--rep", "wdet", "--n", "3",
                         "--cache", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and entry.name in err and "Traceback" not in err
    # a cache error is no refusal: the sweep writes nothing and exits 2 too
    code, out, err = run(capsys, "sweep", "--rep", "wdet", "--n", "2", "--n-max", "3",
                         "--format", "json", "--cache", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and entry.name in err and "Traceback" not in err
    assert entries(tmp_path) == sorted([entry.name, entry_path(tmp_path, "wdet", 2).name])
    assert not any(entry.iterdir())


@pytest.mark.parametrize("option, relative", [
    ("--out", "file/x.json"),
    ("--cache", "file/c"),
    ("--cache", "file"),
], ids=["out", "cache", "cache-file"])
def test_a_path_that_cannot_be_written_exits_2(capsys, tmp_path, monkeypatch, option, relative):
    # an OSError from open or os.makedirs is an error naming the path, exit 2:
    # exit 1 means that a cross-check failed
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    (tmp_path / "file").write_text("")
    path = str(tmp_path / relative)
    code, out, err = run(capsys, "compute", "--rep", "wdet", "--n", "3", option, path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and path in err
    assert (tmp_path / "file").read_text() == ""


def test_cache_entry_of_another_version_is_a_miss(capsys, tmp_path, monkeypatch):
    # an entry stored under another package version is never re-emitted:
    # the point is recomputed and stored in the current version's directory
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    argv = ["compute", "--rep", "dp", "--n", "3", "--format", "json",
            "--cache", str(tmp_path)]
    stale = cli.record("dp", 3, 0.9 + 0j, 0.3 + 0j, 123.0, 0.0, 0.0, cli.DOUBLE_BITS, [],
                       error_estimate=0.0)
    key = cli.cache_key("dp", 3, job_args("dp", 3))
    with monkeypatch.context() as m:
        m.setattr(cli, "__version__", "0.1.0")
        cli.cache_store(cli.cache_dir(str(tmp_path)), key, stale)
        code, out, err = run(capsys, *argv)
        assert code == 0 and "cache hit: dp" in err
        assert json.loads(out)["records"][0]["log_abs_z"] == 123.0
    # nor is an entry at the top of the directory, where 0.2.11 and earlier kept them
    cli.cache_store(str(tmp_path), key, stale)
    code, out, err = run(capsys, *argv)
    assert code == 0 and "cache hit" not in err
    assert json.loads(out)["records"][0]["log_abs_z"] != 123.0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["0.1.0", icewall.__version__, key + ".json"])


def test_cache_key_version_is_the_package_version():
    # icewall.__version__ names the cache directory; it must track pyproject.toml
    tomllib = pytest.importorskip("tomllib")   # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == icewall.__version__


def test_cache_key_holds_only_inputs_the_record_depends_on(capsys, tmp_path, monkeypatch):
    # --tol changes no record, and --bits only those of hankel and wdet;
    # --bits default_bits(N) and no --bits are one job
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    dp, hankel = tmp_path / "dp", tmp_path / "hankel"
    for i, extra in enumerate(([], ["--tol", "1e-6"], ["--bits", "300"])):
        code, _, err = run(capsys, "compute", "--rep", "dp", "--n", "3",
                           "--cache", str(dp), *extra)
        assert code == 0 and ("cache hit: dp" in err) == (i > 0)
    assert len(entries(dp)) == 1
    for bits, hit in ((["--bits", "200"], False), (["--bits", "300"], False),
                      (["--bits", "300"], True), ([], False),
                      (["--bits", str(default_bits(3))], True)):
        code, _, err = run(capsys, "compute", "--rep", "hankel", "--n", "3", *bits,
                           "--cache", str(hankel))
        assert code == 0 and ("cache hit: hankel" in err) == hit
    assert len(entries(hankel)) == 3


@pytest.mark.parametrize("argv, route", [
    (["--n", "3", "--rep", "wdet", "--weights", "1,1,1,1,1,1"], "wdet"),
    (["--n", "3", "--rep", "fredholm-rational", "--lambda", "0.9,0.1"],
     "fredholm-rational"),
    (["--n", "13", "--rep", "gauss"], "gauss"),
    (["--n", "17", "--rep", "fredholm-disordered"], "fredholm-disordered"),
    (["--n", "17", "--rep", "fredholm-discrete", "--lambda", "0,0.55",
      "--eta", "0,0.25"], "fredholm-discrete"),
    (["--n", "19", "--rep", "dp"], "dp"),
    # every term of the sum underflows: the sum over the weights' support is
    # not 0, so the estimate is inf, rather than a false Z = 0
    (["--n", "3", "--rep", "enumerate", "--lambda", "0.9,360", "--eta", "0.3"],
     "enumerate"),
    # every term is about 6e-318 after rescaling, a subnormal that keeps about
    # 20 bits; the weights share one phase, so the sum estimate alone reads 2e-15
    (["--n", "2", "--rep", "enumerate", "--weights", "1,1,1,1,1e-158,1e-158"], "enumerate"),
])
def test_route_refuses_inputs_it_cannot_take(capsys, argv, route):
    assert refused_record(capsys, *argv)["reason"].startswith(route)


def test_dp_weight_underflow_is_refused_and_not_cached(capsys, tmp_path, monkeypatch):
    # dividing by 1e300 takes w5 = w6 = 1e-300 to 0, which gave a false
    # log|Z| = -inf; Z = 2 here
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    rec = refused_record(capsys, "--rep", "dp", "--n", "2", "--weights",
                         "1e300,1e300,1e300,1e300,1e-300,1e-300", "--cache", str(tmp_path))
    assert rec["reason"].startswith("dp")
    assert entries(tmp_path) == []


@pytest.mark.parametrize("argv, named", [
    # gauss's double-precision determinant: log|Z| 117.33 where wdet at
    # 1024 bits gives 113.88, and 2.9e-3 off at (2i, 0.5i)
    (["--rep", "gauss", "--n", "10", "--lambda", "0.9,2", "--eta", "0.3"], "gauss"),
    (["--rep", "gauss", "--n", "10", "--lambda", "0,2", "--eta", "0,0.5"], "gauss"),
    # sin 2 eta ~ e^720 and sin(lambda + eta) ~ e^800 overflow a double
    (["--rep", "dp", "--n", "3", "--eta", "0.3,360"], "sin(2 eta)"),
    (["--rep", "all", "--n", "3", "--lambda", "0.9,800"], "sin(lambda+eta)"),
    # dividing by 1e10 takes w5 = w6 = 1e-305 to subnormals: log|Z| was 3.0e-9 off
    (["--rep", "dp", "--n", "2", "--weights", "1e10,1e10,1e10,1e10,1e-305,1e-305"], "dp"),
    # Nystrom determinants that panel rules gave as log|Z| 2077.58 where wdet
    # gives 1393.76, then 2.0e-3 and 5.4e-7 off wdet; the Gauss rule's
    # orthonormality check and the estimate of det(I - M) refuse them
    (["--rep", "fredholm-disordered", "--n", "3", "--eta", "0.3,100"], "fredholm-disordered"),
    (["--rep", "fredholm-disordered", "--n", "16", "--lambda", "3.0", "--eta", "0.1"],
     "fredholm-disordered"),
    (["--rep", "fredholm-disordered", "--n", "12", "--lambda", "2.9", "--eta", "0.2"],
     "fredholm-disordered"),
    # gauss at N=1: log|Z| -0.31826879 with phase 1.8e-6 where dp gives
    # -0.31827042 with phase 0; forming I - zeta W lost the digits, and the
    # 1 x 1 matrix has condition 1
    (["--rep", "gauss", "--n", "1", "--lambda", "1.0987419351120005,11.516766095946057",
      "--eta", "1.1635292152239898"], "gauss"),
    # fredholm-discrete's Gram roundoff in the ferroelectric regime: log|Z|
    # 1.6e-6 off wdet, though its refinement check passed
    (["--rep", "fredholm-discrete", "--n", "8", "--lambda", "0,2", "--eta", "0,0.5"],
     "fredholm-discrete"),
    # fredholm-rational at N=1: log|Z| -22.33270366654 where dp gives
    # -22.33270374938; forming 1 - xi lost the digits, and the N- and
    # (N+1)-node Gauss rules give the same 1 x 1 Gram matrix
    (["--rep", "fredholm-rational", "--n", "1", "--lambda", "1", "--eta", "1e-10"],
     "fredholm-rational"),
    # log|Z| 48.05600796152012 where hankel and wdet give 48.05600798789627
    # (2.75e-8 relative): refining moved log|Z| by 4.4e-9 but Z by 1.18e-8
    (["--rep", "fredholm-disordered", "--n", "13", "--lambda", "0.6474470628036723",
      "--eta", "1.2451246391975341,0.5874650167477118"], "fredholm-disordered"),
])
def test_untrusted_values_exit_2_and_cache_nothing(capsys, tmp_path, monkeypatch, argv, named):
    # a refused value is a refused record (exit 1); parameters whose sines
    # overflow are invalid input, which writes nothing (exit 2)
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    if named.startswith("sin("):
        code, out, err = run(capsys, "compute", *argv, "--cache", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err and "Traceback" not in err
    else:
        assert refused_record(capsys, *argv, "--cache", str(tmp_path))["reason"].startswith(named)
    assert entries(tmp_path) == []


@pytest.mark.parametrize("argv, bits", [
    (["--rep", "all", "--n", "5"], default_bits(5)),
    (["--rep", "all", "--n", "5", "--bits", "300"], 300),
    (["--rep", "all", "--n", "4", "--lambda", "0,0.55", "--eta", "0,0.25"], default_bits(4)),
    (["--rep", "fredholm-rational", "--n", "8"], None),
])
def test_records_say_the_bits_they_were_computed_with(capsys, argv, bits):
    # hankel and wdet run at default_bits(N) or --bits; every other route in
    # doubles.  Every record carries the error estimate it was vouched for by
    code, out, _ = run(capsys, "compute", *argv, "--format", "json")
    assert code == 0
    for rec in json.loads(out)["records"]:
        expected = bits if rec["representation"] in ("hankel", "wdet") else 53
        assert rec["precision_bits"] == expected, rec["representation"]
        assert 0 <= rec["error_estimate"] <= 1e-8, rec["representation"]


def test_a_cache_hit_is_held_to_the_current_tolerance(capsys, tmp_path, monkeypatch):
    # --tol is not in the cache key: a stored record whose estimate is above
    # it is recomputed, and so refused (exit 1), and its entry stays in place
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    argv = ["--rep", "gauss", "--n", "4", "--cache", str(tmp_path)]
    code, out, _ = run(capsys, "compute", *argv, "--format", "json")
    assert code == 0
    estimate = json.loads(out)["records"][0]["error_estimate"]
    entry, = (tmp_path / icewall.__version__).iterdir()
    stored = entry.read_bytes()
    rec = refused_record(capsys, *argv, "--tol", "1e-20")
    assert rec["reason"].startswith("gauss: the error estimate") and "1e-20" in rec["reason"]
    assert rec["error_estimate"] == estimate
    assert list(entry.parent.iterdir()) == [entry] and entry.read_bytes() == stored
    code, _, err = run(capsys, "compute", *argv)
    assert code == 0 and "cache hit: gauss" in err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 16: fredholm-rational's error estimate reads 0.0 where it is 1.4e-14 off"))
def test_an_answer_at_tolerance_0_is_exact(capsys, monkeypatch):
    # the route gives log|Z| 6.359481310204989 where the 400-bit line-sum
    # reference gives 6.359481310205004: an estimate of 0 under-reads its error
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    code, out, err = run(capsys, "compute", "--rep", "fredholm-rational", "--n", "4",
                         "--lambda", "2.7073144036957673", "--eta", "0.055735232845113475",
                         "--tol", "0", "--format", "json")
    rec, = json.loads(out)["records"]
    assert code == (0 if rec["status"] == "ok" else 1), err
    if code == 0:
        assert rec["error_estimate"] >= abs(rec["log_abs_z"] - 6.359481310205004)


def test_a_value_without_an_error_estimate_is_refused(capsys, tmp_path, monkeypatch):
    # LogScaledValue.error defaults to NaN, which the rule refuses
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli, "partition_dp", lambda n, w: LogScaledValue(1.0, 0.0))
    rec = refused_record(capsys, "--rep", "dp", "--n", "3", "--cache", str(tmp_path))
    assert rec["reason"] == "dp: the error estimate nan at N=3 exceeds the tolerance 1e-08"
    assert rec["error_estimate"] is None
    assert entries(tmp_path) == []


def no_constant(name):
    raise AssertionError(f"{name} is not RFC 8259 JSON")


def failing_verify_rows(monkeypatch):
    """verify 1 with one check refused (an infinite deviation) and one NaN."""
    def refused():
        raise ValueError("refused")
    monkeypatch.setattr(checks, "CHECKS", ((1, "refused", refused, 1.0),
                                           (1, "nan", lambda: math.nan, 1.0)))


@pytest.mark.parametrize("argv, code", [
    (["compute", "--rep", "all", "--n", "3"], 0),
    (["compute", "--rep", "dp", "--n", "12", "--lambda", "1.5707963267948966,3",
      "--eta", "1.0471975511965976"], 1),
    # Z = 0: log|Z| = -inf and f_N = inf were written as -Infinity and Infinity
    (["compute", "--rep", "enumerate", "--n", "3", "--weights", "1,1,1,1,0,0"], 0),
    # a refused point was a NaN record
    (["sweep", "--rep", "enumerate", "--n", "6", "--n-max", "7"], 1),
    (["verify", "1"], 1),
], ids=["ok", "refused", "zero", "sweep-refused", "verify-failing"])
def test_json_output_is_strict(capsys, monkeypatch, argv, code):
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    if argv[0] == "verify":
        failing_verify_rows(monkeypatch)
    status, out, err = run(capsys, *argv, "--format", "json")
    assert status == code, err
    doc = json.loads(out, parse_constant=no_constant)
    assert doc["schema"] == 2
    if argv[0] == "verify":
        assert [r["deviation"] for r in doc["checks"]] == [None, None]
    assert {r["status"] for r in doc.get("records", [])} <= {"ok", "refused"}


def test_zero_is_an_answer_that_round_trips_through_the_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    argv = ["compute", "--rep", "enumerate", "--n", "3", "--weights", "1,1,1,1,0,0",
            "--format", "json", "--cache", str(tmp_path)]
    code, first, _ = run(capsys, *argv)
    rec, = json.loads(first)["records"]
    assert code == 0 and rec["status"] == "ok" and rec["error_estimate"] == 0.0
    assert rec["log_abs_z"] is rec["f_n"] is None and rec["phase"] == 0.0
    code, second, err = run(capsys, *argv)
    assert code == 0 and "cache hit: enumerate" in err and second == first


def test_a_refusal_under_all_leaves_the_answers_that_agree(capsys):
    # antiferroelectric (Delta = -1.81): gauss refuses N=6 (estimate 1.1e-7),
    # which made the whole command exit 2; the other four agree
    code, out, err = run(capsys, "compute", "--rep", "all", "--n", "6",
                         "--lambda", "1.5707963267948966,-0.2",
                         "--eta", "1.5707963267948966,0.6", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    status = {r["representation"]: r["status"] for r in doc["records"]}
    assert status == {"enumerate": "ok", "dp": "ok", "hankel": "ok", "wdet": "ok",
                      "gauss": "refused"}
    assert doc["records"][4]["reason"].startswith("gauss: the error estimate")
    for rec in doc["records"][:4]:
        assert rec["log_abs_z"] == pytest.approx(4.006210210612, abs=1e-11)
    assert doc["summary"]["pass"] and doc["summary"]["max_pairwise_rel_deviation"] < 1e-13


@pytest.mark.parametrize("argv", [
    # fewer than two routes answer: both refuse these weights
    ["--n", "2", "--weights", "1e10,1e10,1e10,1e10,1e-305,1e-305"],
    # two answer but disagree: wdet's known-wrong value (ROADMAP item 4) against dp
    ["--n", "3", "--lambda", "0.9,360", "--eta", "0.3"],
])
def test_all_fails_when_fewer_than_two_routes_answer_or_answers_disagree(capsys, argv):
    code, out, _ = run(capsys, "compute", "--rep", "all", *argv, "--format", "json")
    assert code == 1 and not json.loads(out)["summary"]["pass"]


# ModelParams refuses a vanishing sin(lambda + eta) or sin(lambda - eta), which
# the rational weights do not need: the library's rational kernel agrees with
# dp at these points within 7.1e-15 at N <= 6, where the route exits 2
RATIONAL_FALSE_REFUSAL = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 11: fredholm-rational refuses a point where a trigonometric weight vanishes"))


@pytest.mark.parametrize("lam, eta", [(-1, 0.3), (0.3, -0.5), (-0.2, -0.3), (0.9, 0.3),
                                      (1.0, 1e-5),
                                      pytest.param(2, 1.1415926535897931,
                                                   marks=RATIONAL_FALSE_REFUSAL),
                                      pytest.param(0.7, 0.7, marks=RATIONAL_FALSE_REFUSAL)])
def test_rational_route_matches_dp_at_either_sign_of_lambda_plus_eta(capsys, lam, eta):
    # Z is homogeneous of degree N^2 in the weights (a, b, c) = (lam + eta,
    # lam - eta, 2 eta), so a < 0 only adds N^2 pi to the phase; at eta = 1e-5
    # forming 1 - xi at N = 1 loses digits, but few enough for the route to answer
    a, b, c = lam + eta, lam - eta, 2 * eta
    for n in range(1, 6):
        values = []
        for argv in (["--rep", "fredholm-rational", f"--lambda={lam}", f"--eta={eta}"],
                     ["--rep", "dp", f"--weights={a},{a},{b},{b},{c},{c}"]):
            code, out, _ = run(capsys, "compute", "--n", str(n), *argv, "--format", "json")
            assert code == 0
            rec = json.loads(out)["records"][0]
            values.append(LogScaledValue(rec["log_abs_z"], rec["phase"]))
        assert values[0].rel_diff(values[1]) < 1e-8, n


def test_compute_all_with_weights_runs_weighted_routes_only(capsys):
    code, out, _ = run(capsys, "compute", "--rep", "all", "--n", "3",
                       "--weights", "1,1,1,1,1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["representation"] for r in doc["records"]] == ["enumerate", "dp"]
    assert doc["records"][0]["log_abs_z"] == pytest.approx(math.log(7))


def test_sweep_matches_single_points(capsys):
    # points run one at a time: each record is the single-point value, bit
    # for bit, and mpmath's global precision is left as it was
    code, out, _ = run(capsys, "sweep", "--rep", "wdet", "--n", "1",
                       "--n-max", "12", "--format", "json")
    assert code == 0
    assert mpmath.mp.prec == 53
    for rec in json.loads(out)["records"]:
        code, single, _ = run(capsys, "compute", "--rep", "wdet",
                              "--n", str(rec["n"]), "--format", "json")
        ref = json.loads(single)["records"][0]
        assert (rec["log_abs_z"], rec["phase"]) == (ref["log_abs_z"], ref["phase"])


@pytest.mark.parametrize("n, lam, eta, expected", [
    (5, 0.55j, 0.25j, ["enumerate", "dp", "hankel", "wdet", "gauss",
                       "fredholm-discrete"]),
    (6, math.pi / 2, math.pi / 6, ["enumerate", "dp", "hankel", "wdet", "gauss",
                                   "fredholm-disordered"]),
    (7, 0.9, 0.3, ["dp", "hankel", "wdet", "gauss", "fredholm-disordered"]),
    (12, 0.9, 0.3, ["dp", "hankel", "wdet", "gauss", "fredholm-disordered"]),
    (15, 0.9, 0.3, ["dp", "hankel", "wdet", "fredholm-disordered"]),
    (17, 0.9, 0.3, ["dp", "hankel", "wdet"]),
    (19, 0.9, 0.3, ["hankel", "wdet"]),
    (16, 0.55j, 0.25j, ["dp", "hankel", "wdet", "fredholm-discrete"]),
    (17, 0.55j, 0.25j, ["dp", "hankel", "wdet"]),
])
def test_all_route_selection(n, lam, eta, expected):
    routes = cli.applicable(n, ModelParams(lam, eta), None)
    assert [r.name for r in routes] == expected


def test_rep_choices_follow_the_registry():
    names = [r.name for r in cli.ROUTES]
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))

    def choices(command):
        action = next(a for a in subs.choices[command]._actions if a.dest == "rep")
        return list(action.choices)

    assert choices("compute") == names + ["all"]
    assert choices("sweep") == names


def test_cache_env_var_override(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "from_env"
    monkeypatch.setenv("ICEWALL_CACHE_DIR", str(env_cache))
    code, _, _ = run(capsys, "compute", "--n", "2", "--rep", "dp",
                     "--format", "json")
    assert code == 0
    assert entries(env_cache)


def test_verify_appendix(capsys):
    code, out, _ = run(capsys, "verify", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 2 and doc["pass"]
    assert [c["check"] for c in doc["checks"]] == [
        label for k, label, _, _ in checks.CHECKS if k == 4]
    for c in doc["checks"]:
        assert c["pass"] and c["suite"] == "polynomial identity suite"
        assert set(c) == {"suite", "check", "deviation", "threshold", "pass"}


def test_verify_identities_text(capsys):
    code, out, _ = run(capsys, "verify", "2")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    for selector in ("identities", "0", "8"):
        code, _, err = run(capsys, "verify", selector)
        assert code == 2 and "criterion number 1..7" in err


def test_enumerate_dump_json(capsys):
    code, out, _ = run(capsys, "enumerate-dump", "--n", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["configurations"]) == 7


def test_enumerate_dump_text(capsys):
    code, out, _ = run(capsys, "enumerate-dump", "--n", "1")
    assert code == 0
    assert "# configuration 0" in out


# sha256 of `enumerate-dump --n N --format F` as the configuration-object
# enumeration wrote it, before the row table
DUMP_DIGESTS = {
    (1, "json"): "ad13d7a111f0b1b8a3de0945949fd9224b699f9c6b2cb483a427313af7a071fa",
    (1, "text"): "96e8e319a05cc0e2fef87708260188506b02622c4c2f4b9dd8a6539a729c055c",
    (2, "json"): "9f3497087869a50dc5fe955a3f8b238fc55510bab49fb0825a649258641adf39",
    (2, "text"): "06ef5960259bbb16123bffd55cde38f1ac3ed012b08654f75caf4fb65cec8c5e",
    (3, "json"): "af9cc789c83d9fcf43bca243d377bff44f576f34388d0fec36c94744220a2a15",
    (3, "text"): "e9f66063ed8524fed6429959ea7af1d5ca78151f24b2b182f044afdf8fd24f56",
    (4, "json"): "80c0f8de0d92ad5b807288d43646d1302bc1e651f7ea0c4376d277d39af49e40",
    (4, "text"): "ce88e17d627c6fe5f6bf1f14acbbdfcb240c6125ed96d43b2e2424218ec7f72d",
}


@pytest.mark.parametrize("n, fmt", sorted(DUMP_DIGESTS))
def test_enumerate_dump_is_unchanged(capsys, n, fmt):
    # same configurations, same order, same bytes
    code, out, _ = run(capsys, "enumerate-dump", "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DUMP_DIGESTS[n, fmt]


def fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """`code` run by a new interpreter that has imported nothing of ours."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ICEWALL_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


LOADED_AFTER = """
import contextlib, io, json, sys
from icewall.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:   # --help
            code = exc.code
        assert code == 0
# numpy and mpmath sit in sys.modules unloaded until first use; a submodule
# of theirs is there only once they have run
print(json.dumps(sorted({m.split(".")[0] for m in sys.modules
                         if m.startswith(("numpy.", "scipy", "mpmath.", "dataclasses",
                                          "hashlib", "_hashlib"))})))
"""

SWEEP_WDET = ["sweep", "--rep", "wdet", "--n", "1", "--n-max", "6"]

# command -> (argv, the packages it loads of numpy and mpmath); none loads
# scipy, dataclasses or hashlib.  {cache} is one cache directory, which a
# command runs against twice; {empty} is a new one
FRESH_STARTS = {
    "import": ([], ()),
    "help": (["--help"], ()),
    "hankel": (["compute", "--rep", "hankel", "--n", "6"], ("mpmath",)),
    "wdet-real": (["compute", "--rep", "wdet", "--n", "6"], ("mpmath",)),
    "wdet-complex": (["compute", "--rep", "wdet", "--n", "6", "--lambda", "0.9,0.1",
                      "--eta", "0.3,0.05"], ("mpmath",)),
    "dp": (["compute", "--rep", "dp", "--n", "6"], ("numpy",)),
    "enumerate": (["compute", "--rep", "enumerate", "--n", "4"], ()),
    "sweep-wdet": (SWEEP_WDET, ("mpmath",)),
    "sweep-cached": ([*SWEEP_WDET, "--cache", "{cache}"], ()),   # every point a hit
    "sweep-cache-cold": ([*SWEEP_WDET, "--cache", "{empty}"], ("mpmath",)),   # no point a hit
    "enumerate-dump": (["enumerate-dump", "--n", "3"], ()),
}


@pytest.fixture(scope="module")
def loaded_after(tmp_path_factory):
    """command -> the packages a fresh process has loaded after running it.
    A command with {cache} runs twice, so that the second finds every point."""
    cache = str(tmp_path_factory.mktemp("cache"))
    runs = {}

    def loaded(command: str) -> list:
        if command not in runs:
            template = FRESH_STARTS[command][0]
            argv = [cache if a == "{cache}" else str(tmp_path_factory.mktemp("empty"))
                    if a == "{empty}" else a for a in template]
            if "{cache}" in template:
                fresh_python(LOADED_AFTER, *argv)
            proc = fresh_python(LOADED_AFTER, *argv)
            assert "{cache}" not in template or "cache: 6 hits, 0 computed" in proc.stderr
            assert "{empty}" not in template or "cache: 0 hits, 6 computed" in proc.stderr
            runs[command] = json.loads(proc.stdout)
        return runs[command]
    return loaded


@pytest.mark.parametrize("command", [c for c, (_, loads) in FRESH_STARTS.items()
                                     if "numpy" not in loads])
def test_extended_precision_commands_load_neither_numpy_nor_scipy(loaded_after, command):
    # numpy is bound lazily (icewall.lazy); only a double route loads it
    assert not {"numpy", "scipy"} & set(loaded_after(command))


@pytest.mark.parametrize("command", FRESH_STARTS)
def test_a_fresh_process_loads_mpmath_only_for_its_routes_and_never_dataclasses(
        loaded_after, command):
    # mpmath is bound lazily too, and dataclasses would load inspect: a cold
    # start that runs no extended-precision route pays for neither
    assert "dataclasses" not in loaded_after(command)
    assert ("mpmath" in loaded_after(command)) == ("mpmath" in FRESH_STARTS[command][1])


@pytest.mark.parametrize("command", FRESH_STARTS)
def test_no_command_loads_openssl(loaded_after, command):
    # hashlib loads OpenSSL's libcrypto, over 3 MB resident: the cache names its
    # entries by zlib.crc32, a hit or a miss alike
    assert not {"hashlib", "_hashlib"} & set(loaded_after(command))


def without_elapsed(doc: dict) -> dict:
    return {**doc, "records": [{k: v for k, v in r.items() if k != "elapsed_ms"}
                               for r in doc["records"]]}


@pytest.mark.parametrize("argv", [
    ["--rep", "all", "--n", "5", "--lambda", repr(math.pi / 2), "--eta", repr(math.pi / 6)],
    ["--rep", "all", "--n", "5", "--lambda", "0.9,0.1", "--eta", "0.3,0.05"],
    ["--rep", "dp", "--n", "7", "--weights", "1.1,0.9,0.7,0.8,1.3,0.6"],
    ["--rep", "wdet", "--n", "7", "--lambda", "0.9,0.1", "--eta", "0.3,0.05"],
    ["--rep", "hankel", "--n", "7", "--lambda", "0.9,0.1", "--eta", "0.3,0.05"],
])
def test_a_lazily_loaded_numpy_gives_the_same_records(capsys, monkeypatch, argv):
    # in this process numpy and mpmath were imported before icewall, so
    # icewall.lazy bound them themselves; the fresh process takes the lazy path
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    argv = ["compute", *argv, "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    proc = fresh_python("import sys; from icewall.cli import main; sys.exit(main())", *argv)
    assert without_elapsed(json.loads(proc.stdout)) == without_elapsed(json.loads(out))


@pytest.mark.parametrize("split, joined", [
    (["--rep", "wdet", "--n", "3", "--lambda", "-0.9,0.1", "--eta", "0.3"],
     ["--rep", "wdet", "--n", "3", "--lambda=-0.9,0.1", "--eta", "0.3"]),
    (["--rep", "wdet", "--n", "3", "--lambda", "0.9", "--eta", "-0.3,0.1"],
     ["--rep", "wdet", "--n", "3", "--lambda", "0.9", "--eta=-0.3,0.1"]),
    (["--rep", "dp", "--n", "3", "--weights", "-1,-1,1,1,1,1"],
     ["--rep", "dp", "--n", "3", "--weights=-1,-1,1,1,1,1"]),
])
def test_a_negative_value_may_follow_its_option(capsys, monkeypatch, split, joined):
    # argparse took '-0.9,0.1' for an option: the split form exited 2
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    docs = []
    for argv in (split, joined):
        code, out, err = run(capsys, "compute", *argv, "--format", "json")
        assert code == 0, err
        docs.append(without_elapsed(json.loads(out)))
    assert docs[0] == docs[1]


# Points where a route exited 0 with a wrong log|Z| at 0.2.8 (the N=1 point at
# 0.2.10).  A route must refuse such a point (exit 1, a refused record) or land
# within its --tol (default 1e-8) of the reference.  A case its route still gets
# wrong is a strict xfail until its ROADMAP item mends it.
TILTED_DELTA_HALF = ["--lambda", "1.5707963267948966,3", "--eta", "1.0471975511965976"]
LARGE_IM_ETA = ["--lambda", "1.9695263596419796,-0.40721921442613085",
                "--eta", "1.1275626576126219,83.12980679225902"]
LARGE_IM_LAMBDA = ["--lambda", "0.9,360", "--eta", "0.3"]
LARGE_IM_LAMBDA_N6 = ["--lambda", "0.19921956294803495,9.41625395312672",
                      "--eta", "0.49959805608256136"]
TILTED_IM_9 = ["--lambda", "1.5707963267948966,9", "--eta", "0.3"]
# held to --tol 2e-9: i_minus_error read 1.4e-9 here, where gauss was 4.5e-9 off
LARGE_IM_N1 = ["--lambda", "2.224893426591802,14.135441533228413",
               "--eta", "0.8214857983709151,6.312521354813746", "--tol", "2e-9"]


def known_wrong(rep, n, point, reference, item, gives):
    return pytest.param(rep, n, point, reference, id=f"{rep}-N{n}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"ROADMAP item {item}: {rep} gives {gives} with exit 0"))


@pytest.mark.parametrize("rep, n, point, reference", [
    # references: hankel and wdet agree at 1024 and 2048 bits.  dp gave
    # 235.506427; its error estimate is 5.6e24
    pytest.param("dp", 12, TILTED_DELTA_HALF, 217.67013178703286, id="dp-N12"),
    # hankel and wdet agree at 3072 and 4096 bits.  dp gave -inf, a false
    # Z = 0: the sum over the weights' support is not 0
    pytest.param("dp", 15, LARGE_IM_ETA, 27941.916580157562, id="dp-N15"),
    # hankel and wdet at 1024 bits.  enumerate gave 42.734432; its estimate is 1.5
    pytest.param("enumerate", 6, TILTED_DELTA_HALF, 42.73586059804466, id="enumerate-N6"),
    # dp; hankel and wdet agree with it at 4096 bits.  hankel gave 4135.774;
    # its growth estimate is 2^124.6
    known_wrong("wdet", 3, LARGE_IM_LAMBDA, 2155.172673426567, 4,
                "4225.783, and its growth estimate 2^-126 misses the error,"),
    pytest.param("hankel", 3, LARGE_IM_LAMBDA, 2155.172673426567, id="hankel-N3"),
    # dp; hankel and wdet agree with it at 1024 bits, and wdet --bits 192
    # gives 257.9035324021
    known_wrong("wdet", 6, LARGE_IM_LAMBDA_N6, 257.90353240107277, 4,
                "260.2553694, its estimate 1.7e-30,"),
    # hankel and wdet at 1024 bits; wdet --bits 352 gives 1089.598914734704
    known_wrong("wdet", 12, TILTED_IM_9, 1089.5989147347038, 4,
                "1126.8085428, its estimate 1.0e-59,"),
    # wdet at 1024 bits.  gauss rounded lambda + eta before taking its sine
    pytest.param("gauss", 1, LARGE_IM_N1, 11.931895529078249, id="gauss-N1"),
    known_wrong("fredholm-disordered", 1, LARGE_IM_N1, 11.931895529078249, 2,
                "11.931895533830, 4.75e-9 off with an estimate of 1.4e-9,"),
])
def test_a_route_refuses_or_agrees_at_known_wrong_points(capsys, monkeypatch, rep, n,
                                                          point, reference):
    monkeypatch.delenv("ICEWALL_CACHE_DIR", raising=False)
    code, out, err = run(capsys, "compute", "--rep", rep, "--n", str(n), *point,
                         "--format", "json")
    rec, = json.loads(out)["records"]
    assert code == (0 if rec["status"] == "ok" else 1), err
    if code == 0:
        assert abs(rec["log_abs_z"] - reference) < (
            float(point[point.index("--tol") + 1]) if "--tol" in point else cli.TOL)
