import json
import time
from pathlib import Path

import mpmath as mp
import pytest

from singmod import cli, qforms
from singmod.surd import NotASquareError


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# The "Command line" block of the README: the json keys and the tsv header of each
# example.  Every example exits 0.
VERIFY_KEYS = {"check", "residual", "tolerance", "pass"}
VERIFY_HEADER = "check\tresidual\ttolerance\tpass"
KN_KEYS = {"alpha", "exact", "k", "k_product", "n", "ratio_residual"}
KN_HEADER = "n\tk\talpha\tproduct\tresidual"
README_COMMANDS = {
    "forms --disc -840": ({"class_number", "discriminant", "forms"}, "a\tb\tc"),
    "g2n --n 105": ({"n", "product", "qseries_residual", "value"}, "n\tproduct\tvalue\tresidual"),
    "kn --n 210": (KN_KEYS | {"witness"}, KN_HEADER),
    "kn --n 390": (KN_KEYS, KN_HEADER),
    "tables --m 210": (
        {"deltas", "differences", "jacobi_rows", "m", "survivors"},
        "label\t1\t-3\t5\t-7\t-15\t21\t-35\t105",
    ),
    "jpoly --disc -840": ({"coefficients", "discriminant"}, "degree\tcoefficient"),
    "verify ratio --n 210": (VERIFY_KEYS | {"alpha"}, VERIFY_HEADER),
    "verify dirichlet --delta -3": (VERIFY_KEYS | {"closed_form", "finite_sum"}, VERIFY_HEADER),
    "verify formula-g --a 1 --c 105": (VERIFY_KEYS, VERIFY_HEADER),
    "verify grenzformel --a 1 --c 210": (VERIFY_KEYS, VERIFY_HEADER),
}

# their text output; the (tol ...) figure is 10^(10 - prec) at each default prec
README_TEXT = {
    "forms --disc -840": """\
reduced forms, discriminant -840:
  1. X^2 + 210Y^2
  2. 2X^2 + 105Y^2
  3. 3X^2 + 70Y^2
  4. 5X^2 + 42Y^2
  5. 6X^2 + 35Y^2
  6. 7X^2 + 30Y^2
  7. 10X^2 + 21Y^2
  8. 14X^2 + 15Y^2
class number h(-840) = 8
""",
    "g2n --n 105": """\
g_210 = (251 + 30*sqrt(70))^(1/12) * (3/2 + 1/2*sqrt(5))^(1/4) * (5/2 + 1/2*sqrt(21))^(1/4) * (5 + 2*sqrt(6))^(1/4)
      = 5.60483705714629472133721660966836307862413588312966820645277
q-series residual: -5.66e-73
""",
    "kn --n 210": """\
k_210:
  = (4 - sqrt(15))^2 * (8 - 3*sqrt(7)) * (2 - sqrt(3)) * (6 - sqrt(35)) * (sqrt(10) - 3)^2 * (sqrt(7) - sqrt(6))^2 * (sqrt(2) - 1)^2 * (sqrt(15) - sqrt(14))
  = 0.00000000052025241847064504804898994675076014678748445122927
  alpha = 2.7066257892455517275593316576258447509090535730406e-19
  quartet: a = 121983 + 11904*sqrt(105); b = 249 + 24*sqrt(105); c = 121489 + 11856*sqrt(105); d = 247 + 24*sqrt(105)
  F-ratio residual: -1.94e-62
""",
    "kn --n 390": """\
k_390:
  = 0.00000000000013487235850544482086123007877017146497036850841197
  alpha = 1.8190553088821233912357849943958496116603525257573e-26
  F-ratio residual: -3.89e-62
""",
    "tables --m 210": """\
weighted-sum tables for m = 210
chi           1   -3    5   -7  -15   21  -35  105
(d/211)       1    1    1    1    1    1    1    1
(d/107)       1   -1   -1    1    1   -1   -1    1
(d/73)        1    1   -1   -1   -1   -1    1    1
(d/47)        1   -1   -1   -1    1    1    1   -1
(d/41)        1   -1    1   -1   -1    1   -1    1
(d/37)        1    1   -1    1   -1    1   -1   -1
(d/31)        1    1    1   -1    1   -1   -1   -1
(d/29)        1   -1    1    1   -1   -1    1   -1

coefficient differences (per pair, by odd A):
delta      A=1   A=3   A=5   A=7
1            0     0     0     0
-3           2     2    -2     2
5            2    -2    -2    -2
-7           0     0     0     0
-15          0     0     0     0
21           2    -2     2     2
-35          2     2     2    -2
105          0     0     0     0

survivors: -3, 5, 21, -35
""",
    "jpoly --disc -840": """\
class polynomial for discriminant -840 (monic, degree 8):
  x^8: 1
  x^7: -3494487845306481075093315600749304691200
  x^6: 206573882876758009898241769258678546966352946154161788928000
  x^5: -3134769336133353615460866275393209275783941494973163498240275428147200000
  x^4: 267678830160178923896641219852982233572924885080172883621331723095220158464000000
  x^3: -1111712812272489788109971969097031933551408742194642794550538731744862298072678400000000
  x^2: 454668527671405657965710869144455214652592634921420559367890411545189775674863255552000000000
  x^1: -5112159939990146378938499680802637042771646067107417706535388782137560566356569069977600000000000
  x^0: 7587169380271379738636919142674280077130439504327732605512510089785122099137867107270656000000000000
""",
    "verify ratio --n 210": """\
PASS  F(1-a)/F(a) = sqrt(210): residual -1.94469e-62 (tol 1.0e-40)
""",
    "verify dirichlet --delta -3": """\
PASS  L(1, chi_-3) class number formula: residual 0.0 (tol 1.0e-30)
""",
    "verify formula-g --a 1 --c 105": """\
PASS  Epstein pair difference = 4 pi/sqrt(m) ln g, A=1, C=105: residual 1.60629e-43 (tol 1.0e-20)
""",
    "verify grenzformel --a 1 --c 210": """\
PASS  Epstein constant term, form (1, 0, 210): residual 0.0 (tol 1.0e-20)
""",
}


def test_readme_block_is_pinned():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line")[1].split("```")[1]
    examples = [l.split("#")[0].split(None, 1)[1].strip() for l in block.splitlines() if l.strip()]
    assert examples == list(README_COMMANDS) == list(README_TEXT)


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_outputs(capsys, command):
    keys, header = README_COMMANDS[command]
    code, out, _ = run(capsys, command.split() + ["--format", "json"])
    assert code == 0 and set(json.loads(out)) == keys
    code, out, _ = run(capsys, command.split() + ["--format", "tsv"])
    assert code == 0 and out.splitlines()[0] == header
    code, out, _ = run(capsys, command.split())
    assert code == 0 and out == README_TEXT[command]


def test_jpoly_tsv_rows(capsys):
    code, out, _ = run(capsys, ["jpoly", "--disc", "-4", "--format", "tsv"])
    assert code == 0 and out == "degree\tcoefficient\n1\t1\n0\t-1728\n"


def test_verify_fails_when_digits_are_lost(monkeypatch, capsys):
    # a residual of 1e-50 at --prec 100 has lost 50 digits; the default tolerance is 1e-90
    monkeypatch.setattr(cli.highprec, "verify_grenzformel", lambda *args: mp.mpf("1e-50"))
    argv = ["verify", "grenzformel", "--a", "1", "--c", "210", "--prec", "100"]
    code, out, _ = run(capsys, argv)
    assert code == 1 and out.startswith("FAIL")
    code, out, _ = run(capsys, argv + ["--tol", "1e-40"])
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("prec", [30, 60])
@pytest.mark.parametrize(
    "check",
    [
        ["ratio", "--n", "210"],
        ["dirichlet", "--delta", "-3"],
        ["formula-g", "--a", "1", "--c", "105"],
        ["grenzformel", "--a", "1", "--c", "210"],
    ],
)
def test_default_tolerance_follows_prec(capsys, check, prec):
    code, out, _ = run(capsys, ["verify", *check, "--prec", str(prec), "--format", "json"])
    data = json.loads(out)
    assert code == 0 and data["pass"] is True
    assert data["tolerance"] == f"1.0e-{prec - 10}"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["g2n", "--n", "100000000000000003"],
        ["tables", "--m", "200000000000000006"],
        ["g2n", "--n", "195"],
        ["tables", "--m", "390"],
    ],
)
def test_non_convenient_m_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, argv)
    assert code == 2 and "error" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("disc", ["-400000000000000012", "-100000004"])
def test_forms_beyond_the_bound_exits_2_at_once(capsys, disc):
    start = time.perf_counter()
    code, _, err = run(capsys, ["forms", "--disc", disc])
    assert code == 2 and "at most 10^8" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("disc", ["-10004", "-300000", "-400000000000000012"])
def test_jpoly_beyond_the_bound_exits_2_at_once(capsys, disc):
    start = time.perf_counter()
    code, _, err = run(capsys, ["jpoly", "--disc", disc])
    assert code == 2 and "at most 10^4" in err
    assert time.perf_counter() - start < 1


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
    argv = ["verify", "formula-g", "--a", "1", "--c", "105"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.startswith("PASS")
    # the residual of m = 210 is nonzero (about 2e-43), so a tolerance below it fails
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0 and float(json.loads(out)["residual"]) != 0
    code, out, _ = run(capsys, argv + ["--tol", "1e-60"])
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


@pytest.mark.parametrize("tol", ["inf", "-1", "nan", "abc", "0"])
def test_tolerance_must_be_positive_and_finite(capsys, monkeypatch, tol):
    # a usage error, found before the check runs: inf passed every residual and
    # -1 or nan failed every one
    monkeypatch.setattr(cli.modulus, "singular_modulus", lambda *args: pytest.fail("the check ran"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "ratio", "--n", "2", "--tol", tol])
    assert exc.value.code == 2
    assert "expected a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_env_var_precision_is_checked(monkeypatch, capsys, value):
    monkeypatch.setenv("SINGMOD_PREC", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["kn", "--n", "30"])
    assert exc.value.code == 2
    assert "SINGMOD_PREC" in capsys.readouterr().err
