import contextlib
import io
import json
import logging
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallscale import CrossSection, Profile1D
from wallscale.cli import run
from wallscale.magnetostatics import e_v_volume_oracle


def test_kernel_a_c_prints_round_trippable_value(capsys):
    code = run(["kernel", "a_c", "--c", "100"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    value = float(out)
    assert abs(value - math.pi / 2) <= 0.02 * (math.pi / 2)
    assert repr(value) == out


def test_kernel_a_c_large_aspect_ratio(capsys):
    code = run(["kernel", "a_c", "--c", "1e4"])
    assert code == 0
    assert 0.0 < math.pi / 2 - float(capsys.readouterr().out) < 1e-3


def test_kernel_a_c_rejects_negative(capsys):
    code = run(["kernel", "a_c", "--c", "-1"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    code = run(["kernel", "a_c", "--c", "1", "--bogus"])
    assert code == 1


def test_kernel_i_matches_library(capsys):
    code = run(["kernel", "i", "--l", "0.1", "--d", "0.01", "--x", "2.0", "--swap"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    from wallscale import CrossSection, i_kernel

    assert float(out) == i_kernel(CrossSection(l=0.1, d=0.01), True, 2.0)


def test_kernel_verify_passes(capsys):
    code = run(["kernel", "verify", "--l", "0.1", "--d", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "x,kernel_value,upper_i_margin,upper_ii_margin,lower_margin,passed"
    assert len(out.strip().splitlines()) == 6


def test_wall_eval(capsys):
    code = run(["wall", "eval", "--alpha", "1.0", "--beta", "1.0", "--theta", "0.0", "--x", "0.0"])
    out = capsys.readouterr().out.split()
    assert code == 0
    assert [float(v) for v in out] == [0.0, 1.0, 0.0]


def test_wall_sample_and_energy_round_trip(tmp_path, capsys):
    profile_path = tmp_path / "wall.csv"
    code = run(
        [
            "--out",
            str(profile_path),
            "wall",
            "sample",
            "--alpha",
            "1.0",
            "--half-length",
            "20.0",
            "--nodes",
            "513",
        ]
    )
    assert code == 0
    assert profile_path.exists()
    code = run(["energy", "reduced", "--profile", str(profile_path), "--alpha", "1.0"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert float(out) == pytest.approx(4.0, rel=1e-2)


def test_wall_sample_same_bytes_on_stdout_and_out(tmp_path, capsysbinary):
    # Profile1D.to_csv wrote CRLF through the csv module, stdout LF
    sample = ["wall", "sample", "--alpha", "1.0", "--theta", "0.3", "--half-length", "20.0", "--nodes", "33"]
    assert run(sample) == 0
    printed = capsysbinary.readouterr().out
    profile_path = tmp_path / "wall.csv"
    assert run(["--out", str(profile_path), *sample]) == 0
    assert profile_path.read_bytes() == printed
    assert printed.startswith(b"x,m1,m2,m3\n") and b"\r" not in printed


def test_energy_reduced_overflow_is_a_numerical_failure(tmp_path, capsys):
    # alpha int m2^2 overflowed and printed "inf", the output of the forbid_m3 sentinel
    profile_path = tmp_path / "wall.csv"
    sample = ["wall", "sample", "--alpha", "1.0", "--half-length", "20.0", "--nodes", "65"]
    assert run(["--out", str(profile_path), *sample]) == 0
    assert run(["energy", "reduced", "--profile", str(profile_path), "--alpha", "1e308"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite reduced energy" in captured.err


def test_energy_full_breakdown(tmp_path, capsys):
    profile_path = tmp_path / "wall.csv"
    run(
        [
            "--out",
            str(profile_path),
            "wall",
            "sample",
            "--alpha",
            str(1.0 / math.pi),
            "--half-length",
            "26.0",
            "--nodes",
            "513",
        ]
    )
    capsys.readouterr()
    code = run(["energy", "full", "--profile", str(profile_path), "--l", "0.1", "--d", "0.05"])
    out = capsys.readouterr().out
    assert code == 0
    fields = dict(line.split(",") for line in out.strip().splitlines())
    assert set(fields) == {"exchange", "e_s", "e_v_bound", "total_upper", "rescaled_upper"}
    assert float(fields["total_upper"]) > 0


def test_energy_full_e_v_exact_thin_section(tmp_path, capsys):
    profile_path = tmp_path / "wall.csv"
    run(
        ["--out", str(profile_path), "wall", "sample", "--alpha", str(1.0 / math.pi),
         "--half-length", "26.0", "--nodes", "257"]
    )
    capsys.readouterr()
    code = run(
        ["energy", "full", "--profile", str(profile_path), "--l", "1e-3", "--d", "1e-5",
         "--e-v-exact"]
    )
    out = capsys.readouterr().out
    assert code == 0
    fields = {key: float(value) for key, value in (line.split(",") for line in out.strip().splitlines())}
    assert 0.0 < fields["e_v_exact"] <= fields["e_v_bound"]


@pytest.mark.parametrize("l, d, referee, bound", [("0.1", "0.05", 2.0036953923065e-4, 6e-5),
                                                   ("1e-3", "1e-5", 1.75936972165857e-15, 7e-5)])
def test_energy_full_e_v_exact_is_the_lag_sum(tmp_path, capsys, l, d, referee, bound):
    # the spectral E_v it printed before is 3.52e-3 / 1.63e-3 below the grid-free referee
    profile_path = tmp_path / "wall.csv"
    run(["--out", str(profile_path), "wall", "sample", "--alpha", str(1.0 / math.pi),
         "--half-length", "26.0", "--nodes", "2049"])
    capsys.readouterr()
    assert run(["energy", "full", "--profile", str(profile_path), "--l", l, "--d", d, "--e-v-exact"]) == 0
    fields = {key: float(value) for key, value in (line.split(",") for line in capsys.readouterr().out.splitlines())}
    p = Profile1D.from_csv(profile_path)
    assert fields["e_v_exact"] == e_v_volume_oracle(p, CrossSection(l=float(l), d=float(d)))
    assert abs(fields["e_v_exact"] / referee - 1.0) <= bound


@pytest.mark.parametrize("l, d, code, rows", [("0.1", "0.1", 0, 4), ("1e100", "1e60", 3, 0)])
def test_energy_full_square_and_overflowing_sections(tmp_path, capsys, l, d, code, rows):
    # a square section has no rescaled total, so its breakdown has four rows;
    # at 1e100 x 1e60 the E_v bound overflows, which prints no row and exits 3
    profile_path = tmp_path / "wall.csv"
    run(["--out", str(profile_path), "wall", "sample", "--alpha", str(1.0 / math.pi),
         "--half-length", "26.0", "--nodes", "513"])
    capsys.readouterr()
    assert run(["energy", "full", "--profile", str(profile_path), "--l", l, "--d", d]) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == rows and all(math.isfinite(float(line.split(",")[1])) for line in lines)
    assert ("numerical failure" in captured.err) == (code == 3)


def test_minimize_reduced(capsys):
    code = run(
        ["minimize", "reduced", "--alpha", "1.0", "--half-length", "20.0", "--nodes", "257"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert float(out) == pytest.approx(4.0, rel=2e-2)


def test_minimize_ansatz(capsys):
    code = run(["minimize", "ansatz", "--l", "1e-3", "--d", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    fields = dict(line.split(",") for line in out.strip().splitlines())
    assert float(fields["energy"]) > 0
    assert int(fields["evaluations"]) > 0
    assert set(fields) == {"best_scale", "energy", "evaluations"}
    assert run(["minimize", "ansatz", "--l", "1", "--d", "1e-2"]) == 0  # a wide film
    fields = dict(line.split(",") for line in capsys.readouterr().out.strip().splitlines())
    assert float(fields["energy"]) == pytest.approx(58.94354635030375, rel=1e-15, abs=0.0)


def test_minimize_ansatz_on_square_section_is_a_usage_error(capsys):
    # the search's domain is c < 1, where lambda = 1/sqrt(c |ln c|) is defined
    assert run(["minimize", "ansatz", "--l", "1", "--d", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "usage error: rescaling requires aspect ratio c < 1\n"


def test_ansatz_commands_reject_removed_nodes_flag(tmp_path, capsys):
    assert run(["minimize", "ansatz", "--l", "1e-3", "--d", "1e-6", "--nodes", "513"]) == 1
    out_path = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "rate", "--c-grid", "1e-2", "--l", "1e-3", "--nodes", "513", "--out", str(out_path)]
    )
    assert code == 1
    assert not out_path.exists()


def test_minimize_ansatz_rejects_removed_scales_flag(capsys):
    assert run(["minimize", "ansatz", "--l", "1e-3", "--d", "1e-6", "--scales", "1e-3"]) == 1


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_minimize_reduced_rejects_nonfinite_alpha(capsys, alpha):
    code = run(["minimize", "reduced", "--alpha", alpha, "--half-length", "20.0", "--nodes", "65"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_sweep_rate_wide_section_passes(tmp_path, capsys):
    # the scale bracket [lambda/2, 2 lambda] clipped this optimum: gap 45.68 > rhs 38.64
    out_path = tmp_path / "wide.csv"
    assert run(["sweep", "rate", "--c-grid", "1e-50", "--l", "1", "--out", str(out_path)]) == 0


@pytest.mark.parametrize("c", ["1e-155", "1e-160", "1e-214"])
def test_sweep_rate_below_double_range_exits_3(tmp_path, capsys, c):
    out_path = tmp_path / "thin.csv"
    code = run(["sweep", "rate", "--c-grid", c, "--l", "1e-40", "--out", str(out_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    row = out_path.read_text().strip().splitlines()[1].split(",")
    assert row[5] == "nan" and row[9] == "false"


def test_sweep_rate_emits_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = run(
        [
            "--out",
            str(out_path),
            "--format",
            "csv",
            "sweep",
            "rate",
            "--c-grid",
            "1e-2,1e-4",
            "--l",
            "1e-3",
        ]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("l,d,c,lambda,mu")


def test_sweep_corollary(capsys):
    code = run(["sweep", "corollary", "--c-grid", "1e-4,1e-8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "deviations_decreasing,true" in out


def test_sweep_rate_accepts_width_list(tmp_path):
    out_path = tmp_path / "two_widths.csv"
    code = run(
        ["sweep", "rate", "--c-grid", "1e-2,1e-4", "--l", "1e-3,5e-3", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2 widths x 2 ratios
    widths = {line.split(",")[0] for line in lines[1:]}
    assert widths == {"0.001", "0.005"}


def test_global_flags_accepted_after_subcommand(tmp_path, capsys):
    out_path = tmp_path / "trailing.csv"
    code = run(
        ["sweep", "rate", "--c-grid", "1e-2", "--l", "1e-3", "--format", "csv", "--out", str(out_path)]
    )
    assert code == 0
    assert out_path.exists()
    capsys.readouterr()
    a_c_path = tmp_path / "a_c.out"
    code = run(["kernel", "a_c", "--c", "1.0", "--format", "json", "--out", str(a_c_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert float(a_c_path.read_text()) == pytest.approx(math.pi / 4, rel=1e-6)


def test_removed_global_flags_rejected(capsys):
    assert run(["--threads", "2", "kernel", "a_c", "--c", "1"]) == 1
    assert run(["kernel", "a_c", "--c", "1", "--seed", "3"]) == 1
    assert run(["--tol", "1e-6", "kernel", "a_c", "--c", "1"]) == 1
    assert run(["kernel", "a_c", "--c", "1", "--tol", "1e-6"]) == 1


@pytest.mark.parametrize("argv", [["--help"], ["kernel", "a_c", "--help"]], ids=["root", "leaf"])
def test_help_returns_exit_ok(capsys, argv):
    # argparse's --help raised SystemExit(0) out of run()
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: wallscale " + " ".join(argv[:-1]))


def test_missing_subcommand_is_usage_error(capsys):
    assert run(["kernel"]) == 1
    assert run([]) == 1


def test_verification_failure_maps_to_exit_2(monkeypatch, capsys):
    import wallscale.cli as cli_mod
    from wallscale.errors import VerificationError

    def boom(grid):
        raise VerificationError("synthetic bracket violation")

    monkeypatch.setattr(cli_mod.lab, "corollary33_report", boom)
    assert run(["sweep", "corollary", "--c-grid", "1e-4"]) == 2
    assert "verification failure" in capsys.readouterr().err


def test_kernel_verify_failure_writes_table_then_exits_2(monkeypatch, capsys):
    import dataclasses

    import wallscale.cli as cli_mod

    argv = ["kernel", "verify", "--l", "0.1", "--d", "0.01"]
    assert run(argv) == 0
    table = capsys.readouterr().out
    verify = cli_mod.verify_lemma32
    monkeypatch.setattr(cli_mod, "verify_lemma32", lambda cs, xs: dataclasses.replace(verify(cs, xs), passed=False))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == table
    assert captured.err == "verification failure: kernel bound verification failed\n"


def test_sweep_rate_failure_writes_report_then_exits_2(tmp_path, capsys):
    # l = 1 at c = 1e-150: gap 31.47 above rate_rhs 30.76 with the paper's E_v bound
    out_path = tmp_path / "fail.csv"
    assert run(["sweep", "rate", "--c-grid", "1e-150", "--l", "1", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"{out_path}\n"
    assert captured.err == "verification failure: rate bound violated for at least one case\n"
    row = out_path.read_text().splitlines()[1].split(",")
    assert float(row[7]) > float(row[8]) and row[9] == "false"


def test_sweep_corollary_failure_writes_table_then_exits_2(capsys):
    # a repeated c repeats its deviation, which does not decrease
    assert run(["sweep", "corollary", "--c-grid", "1e-3,1e-3"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "c,ratio,bracket_low,bracket_high,in_bracket" and len(lines) == 4
    assert lines[1] == lines[2] and lines[3] == "deviations_decreasing,false"
    assert captured.err == "verification failure: scaling-ratio deviations not decreasing along the grid\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "corollary", "--c-grid", ","],
        ["sweep", "rate", "--c-grid", ",", "--l", "1e-3"],
        ["sweep", "rate", "--c-grid", "1e-2", "--l", ","],
    ],
    ids=["corollary-c-grid", "rate-c-grid", "rate-l"],
)
def test_empty_numeric_list_is_usage_error(tmp_path, capsys, argv):
    # each printed a header (or a header-only report) and exited 0
    out_path = tmp_path / "empty.csv"
    assert run([*argv, "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "usage error: empty numeric list ','\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_rate_json_report_is_strict_json(tmp_path, capsys):
    # mu leaves the normal range at c = 1e-210: the NaN row was written as bare NaN tokens
    out_path = tmp_path / "r.json"
    assert run(["sweep", "rate", "--c-grid", "1e-210", "--l", "1e-3", "--format", "json", "--out", str(out_path)]) == 3

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    (row,) = json.loads(out_path.read_text(), parse_constant=refuse)
    assert row["mu"] is None and row["gap"] is None and row["pass"] is False


def test_numerical_failure_maps_to_exit_3(monkeypatch, capsys):
    import wallscale.cli as cli_mod
    from wallscale.errors import QuadratureError

    def boom(c):
        raise QuadratureError("synthetic nonconvergence")

    monkeypatch.setattr(cli_mod, "a_c", boom)
    assert run(["kernel", "a_c", "--c", "0.5"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# numeric tokens at and beyond the edges of the documented domain
TOKENS = ["nan", "inf", "-inf", "-1", "0", "1e-320", "1e300", "1e-3", "x"]
number = st.sampled_from(TOKENS)


def number_list(max_size: int):
    return st.lists(number, min_size=1, max_size=max_size).map(",".join)


# profile CSVs the fuzzed energy commands read: an admissible wall, one with
# m3 != 0, malformed files and a missing path; written per example
PROFILES = ["{wall}", "{tilted}", "{nan}", "{short}", "{missing}"]
profile = st.sampled_from(PROFILES)
nodes = st.one_of(number, st.integers(min_value=-1, max_value=65).map(str))


def _optional(flag: str):
    return st.one_of(st.just([]), number.map(lambda v: [flag, v]))


argv_strategy = st.one_of(
    st.builds(lambda c: ["kernel", "a_c", "--c", c], number),
    st.builds(
        lambda l, d, x, swap: ["kernel", "i", "--l", l, "--d", d, "--x", x] + (["--swap"] if swap else []),
        number, number, number, st.booleans(),
    ),
    st.builds(
        lambda l, d, xs: ["kernel", "verify", "--l", l, "--d", d] + xs,
        number, number, st.one_of(st.just([]), number_list(3).map(lambda g: ["--x-samples", g])),
    ),
    st.builds(
        lambda alpha, x, beta, theta: ["wall", "eval", "--alpha", alpha, "--x", x, *beta, *theta],
        number, number, _optional("--beta"), _optional("--theta"),
    ),
    st.builds(
        lambda alpha, half, n, beta, theta: [
            "wall", "sample", "--alpha", alpha, "--half-length", half, "--nodes", n, *beta, *theta
        ],
        number, number, nodes, _optional("--beta"), _optional("--theta"),
    ),
    st.builds(
        lambda path, weights: ["energy", "reduced", "--profile", path, *weights],
        profile,
        st.one_of(
            st.sampled_from([["--e0"], ["--e0", "--allow-m3"], ["--allow-m3"], []]),
            number.map(lambda a: ["--alpha", a]),
        ),
    ),
    st.builds(
        lambda path, l, d, exact: ["energy", "full", "--profile", path, "--l", l, "--d", d]
        + (["--e-v-exact"] if exact else []),
        profile, number, number, st.booleans(),
    ),
    st.builds(lambda l, d: ["minimize", "ansatz", "--l", l, "--d", d], number, number),
    st.builds(
        lambda weights, half, n: ["minimize", "reduced", *weights, "--half-length", half, "--nodes", n],
        st.one_of(st.just(["--e0"]), number.map(lambda a: ["--alpha", a])),
        number,
        nodes,
    ),
    st.builds(lambda grid, l: ["sweep", "rate", "--c-grid", grid, "--l", l], number_list(2), number),
    st.builds(lambda grid: ["sweep", "corollary", "--c-grid", grid], number_list(3)),
)


def _write_profiles(tmp: Path) -> dict[str, str]:
    from wallscale import ClosedFormWall, sample_wall

    paths = {name: str(tmp / f"{name}.csv") for name in ("wall", "tilted", "nan", "short", "missing")}
    sample_wall(ClosedFormWall(alpha=1.0, beta=1.0), 20.0, 33).to_csv(paths["wall"])
    sample_wall(ClosedFormWall(alpha=1.0, beta=1.0, theta=0.7), 20.0, 33).to_csv(paths["tilted"])
    Path(paths["nan"]).write_text("x,m1,m2,m3\n-1,-1,0,0\n0,nan,0,0\n1,1,0,0\n")
    Path(paths["short"]).write_text("x,m1,m2,m3\n0,1,0,0\n")
    return paths


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argv_strategy)
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    err = io.StringIO()
    log = logging.getLogger("wallscale")
    handler = logging.StreamHandler(err)  # where the CLI's log records would reach stderr
    log.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            paths = _write_profiles(Path(tmp))
            argv = [token.format(**paths) for token in argv]
            code = run(argv + ["--out", str(Path(tmp) / "out")])
    finally:
        log.removeHandler(handler)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
