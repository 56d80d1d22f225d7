import json

import pytest

from singmod import cli, qforms
from singmod.surd import NotASquareError


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_forms_text(capsys):
    code, out, _ = run(capsys, ["forms", "--disc", "-840"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[-1] == "class number h(-840) = 8"
    assert lines[-2].endswith("14X^2 + 15Y^2")
    assert len([l for l in lines if l.strip().startswith(tuple("12345678"))]) == 8


def test_forms_small(capsys):
    code, out, _ = run(capsys, ["forms", "--disc", "-4"])
    assert code == 0 and "h(-4) = 1" in out
    code, out, _ = run(capsys, ["forms", "--disc", "-23", "--format", "tsv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # header + three rows


def test_forms_invalid_disc(capsys):
    code, _, err = run(capsys, ["forms", "--disc", "5"])
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["forms"])
    assert exc.value.code == 2


def test_g2n_boxed_string(capsys):
    code, out, _ = run(capsys, ["g2n", "--n", "105"])
    assert code == 0
    assert "(251 + 30*sqrt(70))^(1/12)" in out
    assert "residual" in out


def test_g2n_degenerate_and_g30(capsys):
    code, out, _ = run(capsys, ["g2n", "--n", "1"])
    assert code == 0 and "g_2 = 1" in out
    code, out, _ = run(capsys, ["g2n", "--n", "15", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["product"].startswith("(19 + 6*sqrt(10))^(1/12)")


def test_kn_210(capsys):
    code, out, _ = run(capsys, ["kn", "--n", "210"])
    assert code == 0
    assert (
        "(4 - sqrt(15))^2 * (8 - 3*sqrt(7)) * (2 - sqrt(3)) * (6 - sqrt(35))"
        " * (sqrt(10) - 3)^2 * (sqrt(7) - sqrt(6))^2 * (sqrt(2) - 1)^2 * (sqrt(15) - sqrt(14))"
    ) in out
    assert "quartet: a = 121983 + 11904*sqrt(105)" in out


def test_kn_2_and_30(capsys):
    code, out, _ = run(capsys, ["kn", "--n", "2"])
    assert code == 0 and "(sqrt(2) - 1)" in out
    code, out, _ = run(capsys, ["kn", "--n", "30"])
    assert code == 0
    assert "(5 - 2*sqrt(6)) * (sqrt(6) - sqrt(5)) * (4 - sqrt(15)) * (2 - sqrt(3))" in out


def test_kn_exact_flag(capsys):
    code, out, _ = run(capsys, ["kn", "--n", "3", "--format", "json"])
    assert code == 0 and json.loads(out)["exact"] is True
    code, out, _ = run(capsys, ["kn", "--n", "5", "--format", "json"])
    assert code == 0 and json.loads(out)["exact"] is False
    # 390 = 2 * 3 * 5 * 13 has non-diagonal reduced forms of -1560
    code, out, _ = run(capsys, ["kn", "--n", "390", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is False and data["k_product"] is None


def test_tables_cells(capsys):
    code, out, _ = run(capsys, ["tables", "--m", "210"])
    assert code == 0
    assert "(d/107)" in out and "(d/29)" in out
    assert "survivors: -3, 5, 21, -35" in out


def test_jpoly_trivial(capsys):
    code, out, _ = run(capsys, ["jpoly", "--disc", "-4"])
    assert code == 0
    assert "x^0: -1728" in out


def test_jpoly_sizes_its_own_precision(capsys):
    # coefficients of up to 262 digits; a fixed --prec 50 once failed here
    code, out, _ = run(capsys, ["jpoly", "--disc", "-7000", "--format", "json"])
    assert code == 0
    coeffs = [int(c) for c in json.loads(out)["coefficients"]]
    assert coeffs[0] == 1
    assert len(coeffs) - 1 == qforms.class_number(-7000) == 20


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, ["verify", "formula-g", "--a", "1", "--c", "105"])
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(
        capsys, ["verify", "formula-g", "--a", "1", "--c", "105", "--tol", "1e-60"]
    )
    assert code == 1 and out.startswith("FAIL")


def test_verify_dirichlet(capsys):
    code, out, _ = run(capsys, ["verify", "dirichlet", "--delta", "-3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["finite_sum"].startswith("0.604599")


def test_verify_dirichlet_positive(capsys):
    # K(280) = 4 cycles of reduced forms, eps = 251 + 30 sqrt(70)
    code, out, _ = run(capsys, ["verify", "dirichlet", "--delta", "280", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["finite_sum"].startswith("1.4865288060")
    assert data["closed_form"] == data["finite_sum"]


def test_verify_ratio_210(capsys):
    for n in ("210", "1000"):
        code, out, _ = run(capsys, ["verify", "ratio", "--n", n])
        assert code == 0 and out.startswith("PASS"), n


def test_verify_grenzformel(capsys):
    code, out, _ = run(capsys, ["verify", "grenzformel", "--a", "1", "--b", "0", "--c", "210"])
    assert code == 0 and out.startswith("PASS")


def test_json_round_trip_bytes(capsys):
    for argv in (
        ["forms", "--disc", "-840", "--format", "json"],
        ["tables", "--m", "210", "--format", "json"],
        ["g2n", "--n", "15", "--format", "json"],
    ):
        _, out, _ = run(capsys, argv)
        assert cli._json_dump(json.loads(out)) + "\n" == out


def test_output_deterministic(capsys):
    _, first, _ = run(capsys, ["kn", "--n", "30", "--format", "json"])
    _, second, _ = run(capsys, ["kn", "--n", "30", "--format", "json"])
    assert first == second


def test_env_var_sets_default_precision(monkeypatch):
    monkeypatch.setenv("SINGMOD_PREC", "33")
    parser = cli.build_parser()
    args = parser.parse_args(["kn", "--n", "2"])
    assert args.prec == 33


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise NotASquareError("stub")

    monkeypatch.setattr(cli.modulus, "singular_modulus", boom)
    code, _, err = run(capsys, ["kn", "--n", "30"])
    assert code == 3 and "stub" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kn", "--n", "30", "--prec", "-30"],
        ["kn", "--n", "30", "--prec", "0"],
        ["verify", "ratio", "--n", "30", "--prec", "-20"],
        ["verify", "grenzformel", "--a", "1", "--c", "1", "--prec", "x"],
    ],
)
def test_precision_below_one_is_a_usage_error(capsys, argv):
    # exit 1 means "residual above tolerance"; a bad precision is exit 2
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_env_var_precision_is_checked(monkeypatch, capsys, value):
    monkeypatch.setenv("SINGMOD_PREC", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["kn", "--n", "30"])
    assert exc.value.code == 2
    assert "SINGMOD_PREC" in capsys.readouterr().err
