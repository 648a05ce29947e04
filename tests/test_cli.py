import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import pytest

from nfsasym import cache as cachemod
from nfsasym.cache import CacheVerificationError, load_expansion, save_expansion
from nfsasym.cli import main
from nfsasym.dickman import rho_numeric


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cachemod.CACHE_DIR_ENV, str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_degree_one_rows(self, capsys, cache_env):
        code, out, _ = run(capsys, "expand", "--degree", "1")
        assert code == 0
        assert "a10,1,0,\"4/3\"" in out
        assert "a01,0,1,\"-2*l2 + (1/6)*l3 - 2\"" in out

    def test_degree_zero_usage_error(self, capsys, cache_env):
        code, _, err = run(capsys, "expand", "--degree", "0")
        assert code == 1 and "usage error" in err

    def test_prove_needs_degree_two(self, capsys, cache_env):
        code, _, err = run(capsys, "expand", "--degree", "1", "--prove")
        assert code == 1 and "usage error" in err

    def test_prove_writes_cache_and_table(self, capsys, cache_env, tmp_path):
        out_path = tmp_path / "table.json"
        code, _, err = run(capsys, "expand", "--degree", "2", "--prove",
                           "--format", "json", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["status"] == "minimality-proven"
        names = {r["name"]: r["exact"] for r in payload["rows"]}
        assert names["a30"] == "32/81"
        cache_file = cachemod.cache_path(3)
        assert cache_file.exists()

    def test_latex_format(self, capsys, cache_env):
        code, out, _ = run(capsys, "expand", "--degree", "1", "--format", "latex")
        assert code == 0
        assert out.startswith(r"\begin{array}")
        assert "a_{10} & 4/3" in out

    def test_golden_stability(self, capsys, cache_env):
        _, out1, _ = run(capsys, "expand", "--degree", "1")
        _, out2, _ = run(capsys, "expand", "--degree", "1")
        assert out1 == out2

    def test_cache_write_failure(self, capsys, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv(cachemod.CACHE_DIR_ENV, str(blocker / "sub"))
        code, out, err = run(capsys, "expand", "--degree", "2", "--prove")
        assert code == 1
        assert out.startswith("name,i,j,exact,float\n")
        assert err.startswith(f"error: cannot write expansion cache {blocker / 'sub'}")
        assert "Traceback" not in err

    def test_out_write_failure(self, capsys, cache_env, tmp_path):
        out_path = tmp_path / "missing" / "t.csv"
        code, out, err = run(capsys, "expand", "--degree", "2", "--out", str(out_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(out_path) in err


class TestCacheRoundTrip:
    def test_round_trip_and_tamper(self, cache_env, cpe2):
        path = save_expansion(cpe2)
        loaded = load_expansion(path)
        assert loaded.A == cpe2.candidate.A
        assert loaded.degA == cpe2.candidate.degA
        # flip one coefficient: verification must reject the file
        payload = json.loads(path.read_text())
        key = "6,0"
        assert payload["A"]["terms"][key] == "(32/81)"
        payload["A"]["terms"][key] = "(33/81)"
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheVerificationError):
            load_expansion(path)

    def test_engine_version_mismatch(self, cache_env, cpe2):
        path = save_expansion(cpe2)
        payload = json.loads(path.read_text())
        payload["engine"] = "nfsasym-0.0.0"
        path.write_text(json.dumps(payload))
        with pytest.raises(cachemod.CacheError):
            load_expansion(path)


    def test_write_is_atomic(self, cache_env, cpe2, monkeypatch):
        path = save_expansion(cpe2)
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(cachemod.CacheError) as info:
            save_expansion(cpe2)
        assert isinstance(info.value.__cause__, OSError)
        assert path.read_bytes() == before
        assert list(path.parent.glob("expansion_deg*.json")) == [path]


@pytest.fixture
def verify_calls(monkeypatch):
    calls = []
    real = cachemod.verify_expansion

    def counting(cand, source="cache"):
        calls.append(source)
        return real(cand, source)

    monkeypatch.setattr(cachemod, "verify_expansion", counting)
    return calls


class TestCacheReadPath:
    def test_verifies_only_the_chosen_file(self, capsys, cache_env, cpe2, verify_calls):
        path = save_expansion(cpe2)
        _, alone, _ = run(capsys, "xi", "--degree", "1", "--bits", "2048")
        shutil.copy(path, cachemod.cache_path(4))
        verify_calls.clear()
        code, out, _ = run(capsys, "xi", "--degree", "1", "--bits", "2048")
        assert code == 0 and out == alone
        assert verify_calls == [str(path)]
        # the copy names degree 4 but holds degree 3: skipped, nothing else qualifies
        code, _, err = run(capsys, "xi", "--degree", "4", "--bits", "2048")
        assert code == 1 and "usage error" in err

    def test_tampered_file_falls_through(self, capsys, cache_env, cpe2, cpe4, verify_calls):
        small = save_expansion(cpe2)
        large = save_expansion(cpe4)
        _, clean, _ = run(capsys, "xi", "--degree", "1", "--bits", "2048")
        payload = json.loads(small.read_text())
        payload["A"]["terms"]["6,0"] = "(33/81)"
        small.write_text(json.dumps(payload))
        verify_calls.clear()
        code, out, _ = run(capsys, "xi", "--degree", "1", "--bits", "2048")
        assert code == 0 and out == clean
        assert verify_calls == [str(small), str(large)]
        assert cachemod.load_proven(1).degA == cpe4.candidate.degA

    @pytest.mark.parametrize("corrupt", [
        "zero-denominator", "missing-A", "terms-list",
        # these parse, and fail while the constraint is rebuilt
        "D-constant-missing", "A-constant-negative", "A-constant-l2", "D-constant-l2",
    ])
    def test_malformed_file_skipped(self, capsys, cache_env, cpe2, corrupt):
        from nfsasym.nfsopt import compute_proven_expansion

        large = save_expansion(compute_proven_expansion(3))
        _, clean, _ = run(capsys, "xi", "--degree", "2", "--loglogN", "26")
        small = save_expansion(cpe2)
        assert (small.name, large.name) == ("expansion_deg3.json", "expansion_deg4.json")
        payload = json.loads(small.read_text())
        if corrupt == "zero-denominator":
            payload["A"]["terms"]["6,0"] = "(1/0)"
        elif corrupt == "missing-A":
            del payload["A"]
        elif corrupt == "terms-list":
            payload["D"]["terms"] = []
        elif corrupt == "D-constant-missing":
            del payload["D"]["terms"]["0,0"]
        else:
            series, value = corrupt.split("-constant-")
            payload[series]["terms"]["0,0"] = {"negative": "(-1)", "l2": "(1)*l2"}[value]
        small.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "xi", "--degree", "2", "--loglogN", "26")
        assert code == 0 and out == clean
        if "-constant-" in corrupt:
            with pytest.raises(CacheVerificationError, match="cannot be rebuilt"):
                load_expansion(small)
        else:
            with pytest.raises(cachemod.CacheError, match="malformed"):
                load_expansion(small)

    def test_negative_exponent_is_malformed(self, cache_env, cpe2):
        # a coefficient with l2^-1 is rejected while the file is decoded,
        # before any constraint is rebuilt
        path = save_expansion(cpe2)
        payload = json.loads(path.read_text())
        payload["A"]["terms"]["6,0"] = "(1)*l2^-1"
        path.write_text(json.dumps(payload))
        with pytest.raises(cachemod.CacheError, match="malformed expansion cache"):
            load_expansion(path)

    def test_unparseable_names_ignored(self, cache_env, cpe2):
        path = save_expansion(cpe2)
        shutil.copy(path, path.with_name("expansion_degX.json"))
        path.unlink()
        assert cachemod.load_proven(1) is None


class TestNumericCommands:
    def test_rho(self, capsys):
        code, out, _ = run(capsys, "rho", "--u", "2", "--method", "dde")
        assert code == 0
        assert "0.30685281944" in out

    def test_rho_below_float_range(self, capsys):
        # exp(log rho) is 0.0 at u = 500, so rho is printed from its log
        code, out, _ = run(capsys, "rho", "--u", "500")
        m = re.fullmatch(r"rho\(500\.0\) = (\S+)e(-\d+)   log = (\S+)\n", out)
        assert code == 0 and m, out
        mantissa, k, log_rho = m.groups()
        assert 1.0 <= float(mantissa) < 10.0
        got = mpmath.mpf(mantissa) * mpmath.power(10, int(k))
        want = mpmath.exp(mpmath.mpf(log_rho))
        assert abs(got / want - 1) < 1e-10

    @pytest.mark.parametrize("u", ["2", "30"])
    def test_rho_text_in_float_range(self, capsys, u):
        # where exp(log rho) is a normal float the line is the float's repr
        value = rho_numeric(float(u))
        code, out, _ = run(capsys, "rho", "--u", u)
        assert code == 0
        assert out == f"rho({float(u)}) = {math.exp(value.log_rho)!r}   log = {value.log_rho!r}\n"

    @pytest.mark.parametrize("u", ["nan", "-1"])
    def test_rho_outside_domain(self, capsys, u):
        code, _, err = run(capsys, "rho", "--u", u)
        assert code == 1 and f"rho needs u >= 0, got {float(u)}" in err

    @pytest.mark.parametrize("argv, message", [
        (("rho", "--u", "inf", "--method", "series"), "asymptotic rho needs finite u > e, got inf"),
        (("xi", "--degree", "1", "--nu", "inf"), "xi evaluation needs finite nu > e^e, got inf"),
        (("xi", "--degree", "1", "--loglogN", "inf"),
         "xi evaluation needs finite loglog nu > 1, got inf"),
        (("keysize", "--from-bits", "512", "--to-bits", "inf", "--degree", "1"),
         "usage error: need finite to-bits > from-bits > 1"),
        (("keysize", "--from-bits", "2", "--to-bits", "3", "--degree", "1"),
         "usage error: need from-bits > e^e / log 2 = 21.86, got 2"),
        (("keysize", "--from-bits", "2", "--to-bits", "3", "--degree", "0"),
         "usage error: need from-bits > e^e / log 2 = 21.86, got 2"),
    ], ids=["rho-series", "xi-nu", "xi-loglogN", "keysize-to-bits", "keysize-from-bits",
            "keysize-from-bits-degree-0"])
    def test_non_finite_input_rejected(self, capsys, cache_env, cpe2, argv, message):
        save_expansion(cpe2)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and message in err

    def test_rho_series(self, capsys):
        code, out, _ = run(capsys, "rho", "--u", "30", "--method", "series", "--order", "4")
        assert code == 0 and "integral form" in out

    def test_radius(self, capsys):
        code, out, _ = run(capsys, "radius")
        assert code == 0
        assert out.strip() == "0.317844, threshold eta >= 176: OK"

    def test_xi_requires_cache(self, capsys, cache_env):
        code, _, err = run(capsys, "xi", "--degree", "3", "--bits", "2048")
        assert code == 1 and "expand" in err

    def test_xi_with_cache(self, capsys, cache_env, cpe2):
        save_expansion(cpe2)
        code, out, _ = run(capsys, "xi", "--degree", "1", "--bits", "2048")
        assert code == 0
        value = float(out.strip().split("=")[-1])
        assert value == pytest.approx(-0.0772, abs=1e-3)

    def test_xi_loglog(self, capsys, cache_env, cpe2):
        save_expansion(cpe2)
        code, out, _ = run(capsys, "xi", "--degree", "2", "--loglogN", "26")
        assert code == 0 and "loglog" in out

    def test_keysize_degree_zero(self, capsys, cache_env):
        code, out, _ = run(capsys, "keysize", "--from-bits", "512",
                           "--to-bits", "2048", "--degree", "0")
        assert code == 0
        assert "caveat" in out
        match = re.search(r"g0 style\): 2\^(\d+\.\d+)", out)
        assert match and abs(float(match.group(1)) - 28.0) <= 1.0

    def test_keysize_negative_degree(self, capsys, cache_env):
        code, out, err = run(capsys, "keysize", "--from-bits", "512",
                             "--to-bits", "1024", "--degree", "-1")
        assert code == 1
        assert out == ""
        assert "--degree must be >= 0" in err

    def test_figure_logrho(self, capsys, cache_env, tmp_path):
        csv_path = tmp_path / "fig.csv"
        svg_path = tmp_path / "fig.svg"
        code, out, _ = run(capsys, "figure", "--id", "logrho", "--i-max", "4",
                           "--points", "32", "--out", str(csv_path),
                           "--svg", str(svg_path))
        assert code == 0
        assert csv_path.read_text().startswith("abscissa,curve,value")
        assert svg_path.read_text().startswith("<svg")

    @pytest.mark.parametrize("i_max", ["0", "-2"])
    def test_figure_logrho_without_curves(self, capsys, cache_env, tmp_path, i_max):
        csv_path = tmp_path / "fig.csv"
        for extra in ([], ["--svg", str(tmp_path / "fig.svg")]):
            code, out, err = run(capsys, "figure", "--id", "logrho", "--i-max", i_max,
                                 "--points", "16", "--out", str(csv_path), *extra)
            assert code == 1
            assert err == f"error: figure logrho needs i_max >= 1, got {i_max}\n"
            assert not csv_path.exists()

    def test_figure_write_failure(self, capsys, cache_env, tmp_path):
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "figure", "--id", "logrho", "--i-max", "2",
                             "--points", "16", "--out", str(out_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(out_path) in err

    def test_figure_deterministic_bytes(self, capsys, cache_env, tmp_path, cpe2):
        save_expansion(cpe2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "figure", "--id", "convergence", "--i-max", "2",
            "--points", "16", "--out", str(p1))
        run(capsys, "figure", "--id", "convergence", "--i-max", "2",
            "--points", "16", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_command_usage(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1


# run in a fresh interpreter: this process has numpy loaded already
FLOAT_STACK_SCRIPT = textwrap.dedent("""
    import json, sys
    import nfsasym.cli as cli

    out = sys.argv[1]
    for argv in (
        ["expand", "--degree", "2", "--prove"],
        ["xi", "--degree", "1", "--bits", "2048"],
        ["keysize", "--from-bits", "512", "--to-bits", "1024", "--degree", "1"],
        ["figure", "--id", "zonecrypto", "--i-max", "2", "--out", out + "/zone.csv"],
        ["figure", "--id", "logrho", "--i-max", "2", "--out", out + "/logrho.csv"],
        ["radius"],
    ):
        assert cli.main(argv) == 0, argv
    exact_only = sorted(m for m in ("numpy", "scipy") if m in sys.modules)

    from nfsasym.dickman import log_rho_debruijn, rho_numeric
    db = log_rho_debruijn(5.0, 3)
    assert cli.main(["rho", "--u", "30", "--method", "series"]) == 0
    debruijn_only = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
    rho2 = rho_numeric(2.0).rho
    assert cli.main(["rho", "--u", "500"]) == 0
    print(json.dumps({
        "exact_only": exact_only,
        "debruijn_only": debruijn_only,
        "after_float": sorted(m for m in ("numpy", "scipy") if m in sys.modules),
        "rho2": rho2,
        "rho5": rho_numeric(5.0).log_rho,
        "db_series": db.log_rho_series,
        "db_integral": db.log_rho_integral,
    }))
""")


def test_float_stack_loads_only_for_float_evaluators(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env[cachemod.CACHE_DIR_ENV] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, "-c", FLOAT_STACK_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["exact_only"] == []
    assert got["debruijn_only"] == []
    assert got["after_float"] == []
    assert got["rho2"] == pytest.approx(1.0 - math.log(2.0), abs=1e-9)
    assert math.isfinite(got["db_series"])
    assert abs(got["db_integral"] - got["rho5"]) < 0.5
