import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riemmean
from riemmean.cli import main
from riemmean.literals import (
    format_point,
    parse_point,
    parse_spd,
    read_points_file,
    read_spd_file,
)
from riemmean.manifolds import parse_manifold
from riemmean.errors import InvalidInputError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(stdout: str) -> dict:
    pairs = {}
    for line in stdout.strip().splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            pairs[k] = v
    return pairs


# -- literals -----------------------------------------------------------------


def test_point_literal_roundtrip():
    for spec, literal in [
        ("sphere:2", "0.6,0.8,0"),
        ("euclidean:3", "1,2,-3.5"),
        ("diagpos:2", "4,1"),
        ("so:2:k=1.0", "0,-1,1,0"),
        ("product(so:2:k=1.0;diagpos:2)", "1,0,0,1;4,1"),
    ]:
        m = parse_manifold(spec)
        p = parse_point(m, literal)
        again = parse_point(m, format_point(m, p))
        assert np.array_equal(p.coords, again.coords)


def test_point_literal_errors():
    sph = parse_manifold("sphere:2")
    with pytest.raises(InvalidInputError):
        parse_point(sph, "1,0")  # wrong arity
    with pytest.raises(InvalidInputError):
        parse_point(sph, "1,bad,0")
    with pytest.raises(InvalidInputError):
        parse_spd("1,2,3")  # not a square


@pytest.mark.parametrize("literal", ["nan,0,0,1", "2,0,0,inf", "2,-inf,-inf,1"])
def test_spd_literal_rejects_non_finite(literal):
    with pytest.raises(InvalidInputError, match="non-finite"):
        parse_spd(literal)


def test_points_file_comments(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# heading\n1,0,0\n\n0,1,0  # inline\n")
    pts = read_points_file(parse_manifold("sphere:2"), str(path))
    assert len(pts) == 2


def test_spd_file_comments(tmp_path):
    path = tmp_path / "spd.txt"
    path.write_text("# heading\n2,0,0,1\n\n3,0.5,0.5,1  # inline\n")
    mats = read_spd_file(str(path), 2)
    assert [S.tolist() for S in mats] == [[[2, 0], [0, 1]], [[3, 0.5], [0.5, 1]]]


@pytest.mark.parametrize(
    "read, bad_line, empty",
    [
        (lambda path: read_points_file(parse_manifold("sphere:2"), path),
         "expected shape (3,), got (2,)", "no points found"),
        (lambda path: read_spd_file(path, 2),
         "SPD literal length 2 is not a square", "no matrices found"),
    ],
    ids=["points", "spd"],
)
def test_line_files_name_the_bad_line_and_refuse_an_empty_file(tmp_path, read, bad_line, empty):
    path = tmp_path / "values.txt"
    path.write_text("# heading\n\n1,0\n")
    with pytest.raises(InvalidInputError) as info:
        read(str(path))
    assert str(info.value) == f"{path}:3: {bad_line}"
    path.write_text("# only a comment\n\n")
    with pytest.raises(InvalidInputError) as info:
        read(str(path))
    assert str(info.value) == f"{path}: {empty}"


# -- subcommands ----------------------------------------------------------------


def test_constants_command(capsys):
    code, out, _ = run_cli(capsys, "constants", "--m", "2", "--k", "1")
    assert code == 0
    got = kv(out)
    assert got["beta_gp"].startswith("1.5707963267948966")
    assert got["r_cx_cover"].startswith("1.5707963267948966")
    assert got["r_inj_quotient"].startswith("0.78539816339744828")
    assert got["r_cx_quotient"].startswith("0.39269908169872414")


def test_mean_command_euclidean(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0\n2\n")
    code, out, _ = run_cli(
        capsys, "mean", "--manifold", "euclidean:1", "--points", str(path)
    )
    assert code == 0
    got = kv(out)
    assert float(got["minimizer"]) == pytest.approx(1.0, abs=1e-14)
    assert float(got["barycenter_residual"]) < 1e-14
    assert got["classification"] == "short"


def test_mean_command_output_reparses(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1,0,0\n0.8,0.6,0\n")
    code, out, _ = run_cli(
        capsys, "mean", "--manifold", "sphere:2", "--points", str(path)
    )
    assert code == 0
    minimizer = kv(out)["minimizer"]
    sph = parse_manifold("sphere:2")
    p = parse_point(sph, minimizer)  # validates the printed point
    assert format_point(sph, p) == minimizer


def test_psr_dist_command(capsys):
    code, out, _ = run_cli(capsys, "psr-dist", "--a", "4,0,0,1", "--b", "1,0,0,4")
    assert code == 0
    assert float(kv(out)["d_sr"]) == pytest.approx(math.pi / 2, abs=1e-12)


def test_dist_command_csv(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--manifold", "sphere:2", "--a", "1,0,0", "--b", "0,1,0",
        "--csv",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "dist"
    assert float(row) == pytest.approx(math.pi / 2)


def test_certify_command(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1,0,0\n0.8,0.6,0\n")
    code, out, _ = run_cli(
        capsys, "certify", "--manifold", "sphere:2", "--points", str(path)
    )
    assert code == 0
    got = kv(out)
    assert got["certified"] == "1"
    assert float(got["radius"]) < math.pi / 2


def test_efm_command(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1,0,0\n0.8,0.6,0\n")
    code, out, _ = run_cli(
        capsys, "efm", "--cover", "sphere:2", "--points", str(path)
    )
    assert code == 0
    got = kv(out)
    assert got["orbit_size"] == "2"
    assert "orbit_0" in got and "orbit_1" in got


def test_psr_mean_command(capsys, tmp_path):
    path = tmp_path / "spd.txt"
    path.write_text("2,0,0,1\n3,0,0,1\n")
    code, out, _ = run_cli(
        capsys, "psr-mean", "--m", "2", "--samples", str(path), "--restarts", "2"
    )
    assert code == 0
    got = kv(out)
    d = [float(x) for x in got["D"].split(",")]
    assert d[0] == pytest.approx(math.sqrt(6.0), abs=1e-8)
    assert got["unique_up_to_G"] == "1"


def test_usage_error_exit_2(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("1,0\n")
    code, _, err = run_cli(
        capsys, "mean", "--manifold", "sphere:2", "--points", str(path)
    )
    assert code == 2
    assert "usage error" in err
    assert "grammar" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dist", "--manifold", "sphere:2", "--a", "nan,0,1", "--b", "0,0,1"),
        ("dist", "--manifold", "so:2", "--a", "1,0,0,1", "--b", "inf,0,0,1"),
        ("dist", "--manifold", "product(so:2;diagpos:2)", "--a", "1,0,0,1;nan,1",
         "--b", "1,0,0,1;2,1"),
        ("psr-dist", "--a", "nan,0,0,1", "--b", "2,0,0,1"),
    ],
)
def test_non_finite_literal_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "non-finite" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("constants", "--m", "2", "--k", "nan"),
        ("constants", "--m", "2", "--k", "inf"),
        ("mean", "--manifold", "sphere:2", "--points", "{points}", "--tol", "nan"),
        ("psr-dist", "--a", "4,0,0,1", "--b", "1,0,0,4", "--k", "nan"),
        ("psr-dist", "--a", "4,0,0,1", "--b", "1,0,0,4", "--gap-tol", "nan"),
    ],
)
def test_non_finite_float_flag_exits_2(capsys, tmp_path, argv):
    points = tmp_path / "pts.txt"
    points.write_text("1,0,0\n0.8,0.6,0\n")
    with pytest.raises(SystemExit) as exc:
        main([a.format(points=points) for a in argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "must be finite and > 0" in out.err
    assert out.out == ""


def test_experiment_with_non_finite_setting_exits_2(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "experiment = psr_genericity\n"
        "trials = 2\n"
        "sample_size = 3\n"
        "seed = 5\n"
        "tol = nan\n"
        f"out_csv = {tmp_path / 'out.csv'}\n"
        f"out_summary = {tmp_path / 'out.txt'}\n"
    )
    code, out, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 2
    assert "tol must be finite" in err
    assert out == ""
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("constants", "--m", "1"), "--m must be between 2 and 5"),
        (("psr-mean", "--m", "1", "--samples", "{samples}"), "--m must be between 2 and 5"),
        (("psr-mean", "--m", "6", "--samples", "{samples}"), "--m must be between 2 and 5"),
        (("psr-dist", "--a", "2", "--b", "3"), "the size of --a must be between 2 and 5"),
        (("psr-dist", "--a", "4,0,0,1", "--b", "3"), "the size of --b must be between 2 and 5"),
        (
            ("psr-mean", "--m", "2", "--samples", "{samples}", "--restarts", "-3"),
            "--restarts must be >= 0",
        ),
        (
            ("psr-dist", "--a", "4,0,0,1", "--b", "4,0,0,0,2,0,0,0,1"),
            "--a is 2x2 but --b is 3x3",
        ),
    ],
)
def test_spd_size_and_restarts_are_usage_errors(capsys, tmp_path, argv, message):
    """An SPD size outside 2..5, two different sizes for ``psr-dist`` and a
    negative ``--restarts`` exit 2 before any solve, whichever command they
    reach."""
    samples = tmp_path / "spd.txt"
    samples.write_text("2,0,0,1\n3,0,0,1\n")
    code, out, err = run_cli(capsys, *(a.format(samples=samples) for a in argv))
    assert code == 2
    assert "usage error" in err
    assert message in err
    assert out == ""


def test_domain_error_exit_1(capsys):
    # equal eigenvalues: the scaling-rotation fiber is not a finite orbit
    code, _, err = run_cli(capsys, "psr-dist", "--a", "1,0,0,1", "--b", "2,0,0,1")
    assert code == 1
    assert "DegenerateSpectrum" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mean", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("efm", "--cover", "sphere:2", "--points", "{points}"),
        ("psr-mean", "--m", "2", "--samples", "{points}"),
    ],
)
def test_equivariant_means_take_no_tol_flag(capsys, tmp_path, argv):
    """``--tol`` sets the Frechet gradient tolerance of ``mean`` only."""
    points = tmp_path / "pts.txt"
    points.write_text("1,0,0\n0.8,0.6,0\n")
    with pytest.raises(SystemExit) as exc:
        main([a.format(points=points) for a in argv] + ["--tol", "1e-10"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "unrecognized arguments: --tol" in out.err
    assert out.out == ""


def test_experiment_command(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "experiment = sphere_genericity\n"
        "trials = 3\n"
        "sample_size = 4\n"
        "seed = 5\n"
        f"out_csv = {tmp_path / 'out.csv'}\n"
        f"out_summary = {tmp_path / 'out.txt'}\n"
    )
    code, out, _ = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 0
    assert "atom_count=0" in out
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out.txt").exists()


def test_selftest_command(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "selftest: PASS" in out


# -- import cost ----------------------------------------------------------------


def test_import_riemmean_leaves_the_front_end_unloaded():
    """``import riemmean`` loads the library only: the CLI, the selftest,
    the literal parsers and argparse load when the CLI runs.  Every module
    loaded at import is compiled in a fresh process without bytecode
    caches, which the benchmark's set-up time counts."""
    src = str(Path(riemmean.__file__).resolve().parents[1])
    probe = (
        "import sys, riemmean; "
        "print(','.join(sorted(m for m in ('riemmean.cli', 'riemmean.selftest', "
        "'riemmean.literals', 'argparse') if m in sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == ""
