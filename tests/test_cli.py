import math

import pytest

from wallscale.cli import run


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
    assert 0 < int(fields["kernel_nodes"]) <= 64


def test_ansatz_commands_reject_removed_nodes_flag(tmp_path, capsys):
    assert run(["minimize", "ansatz", "--l", "1e-3", "--d", "1e-6", "--nodes", "513"]) == 1
    out_path = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "rate", "--c-grid", "1e-2", "--l", "1e-3", "--nodes", "513", "--out", str(out_path)]
    )
    assert code == 1
    assert not out_path.exists()


@pytest.mark.parametrize("c", ["1e-155", "1e-160", "1e-214"])
def test_sweep_rate_below_double_range_exits_3(tmp_path, capsys, c):
    out_path = tmp_path / "thin.csv"
    code = run(["sweep", "rate", "--c-grid", c, "--l", "1e-3", "--out", str(out_path)])
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


def test_numerical_failure_maps_to_exit_3(monkeypatch, capsys):
    import wallscale.cli as cli_mod
    from wallscale.errors import QuadratureError

    def boom(c):
        raise QuadratureError("synthetic nonconvergence")

    monkeypatch.setattr(cli_mod, "a_c", boom)
    assert run(["kernel", "a_c", "--c", "0.5"]) == 3
    assert "numerical failure" in capsys.readouterr().err
