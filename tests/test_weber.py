import time
from fractions import Fraction

import mpmath as mp
import pytest

from singmod import arith, highprec, pell, qforms, weber
from singmod.surd import SurdElement, parse_surd

from conftest import all_unit_norms

# the 8x8 symbol table for m = 210: rows by form (A + C labels), columns by
# delta in (1, -3, 5, -7, -15, 21, -35, 105)
JACOBI_TABLE_210 = {
    211: (1, 1, 1, 1, 1, 1, 1, 1),
    107: (1, -1, -1, 1, 1, -1, -1, 1),
    73: (1, 1, -1, -1, -1, -1, 1, 1),
    47: (1, -1, -1, -1, 1, 1, 1, -1),
    41: (1, -1, 1, -1, -1, 1, -1, 1),
    37: (1, 1, -1, 1, -1, 1, -1, -1),
    31: (1, 1, 1, -1, 1, -1, -1, -1),
    29: (1, -1, 1, 1, -1, -1, 1, -1),
}

DIFFERENCES_210 = {
    1: (0, 0, 0, 0),
    -3: (2, 2, -2, 2),
    5: (2, -2, -2, -2),
    -7: (0, 0, 0, 0),
    -15: (0, 0, 0, 0),
    21: (2, -2, 2, 2),
    -35: (2, 2, 2, -2),
    105: (0, 0, 0, 0),
}


def test_l_value_negative_golden():
    with mp.workdps(45):
        L = highprec.dirichlet_l_one(-3, 40)
        assert abs(L - mp.pi / (3 * mp.sqrt(3))) < mp.mpf("1e-25")


def test_l_value_positive_golden():
    with mp.workdps(45):
        L = highprec.dirichlet_l_one(280, 40)
        closed = 8 / mp.sqrt(280) * mp.log(5 * mp.sqrt(5) + 3 * mp.sqrt(14))
        assert abs(L - closed) < mp.mpf("1e-25")


def test_l_value_five_agrees_with_unit_form():
    with mp.workdps(45):
        L = highprec.dirichlet_l_one(5, 40)
        eps = (3 + mp.sqrt(5)) / 2
        assert abs(L - mp.log(eps) / mp.sqrt(5)) < mp.mpf("1e-35")


def test_l_value_rejects_one():
    with pytest.raises(ValueError):
        highprec.dirichlet_l_one(1)


CONVENIENT = (2, 6, 10, 22, 30, 42, 58, 70, 78, 102, 130, 190, 210, 330, 462)


def _class_number_formula_residual(delta):
    """L(1, chi) as a finite sum minus its closed form in the exact K(delta)."""
    L = highprec.dirichlet_l_one(delta, 40)
    K = qforms.weighted_class_number(delta)
    Kv = mp.mpf(K.numerator) / K.denominator
    if delta < 0:
        return L - mp.pi / mp.sqrt(-delta) * Kv
    eps = pell.unit_value(pell.solve_even_pell(delta)).evalf()
    return L - mp.log(eps) / mp.sqrt(delta) * Kv


def test_class_number_formula_all_discriminants_in_scope():
    deltas = set()
    for m in CONVENIENT:
        for p in weber.disc_pairs(m):
            deltas.update({p.delta, p.delta_prime})
    deltas.discard(1)
    with mp.workdps(50):
        for delta in sorted(deltas, key=abs):
            assert abs(_class_number_formula_residual(delta)) < mp.mpf("1e-30"), delta


def test_class_number_formula_positive_fundamental_below_200():
    deltas = [d for d in range(2, 200) if arith.is_fundamental_discriminant(d)]
    assert len(deltas) == 60
    with mp.workdps(50):
        for delta in deltas:
            assert abs(_class_number_formula_residual(delta)) < mp.mpf("1e-30"), delta


def test_genus_count_divides_class_count():
    # the 2^(omega - 1) genera of delta split the narrow classes evenly
    for delta in range(2, 3000):
        if arith.is_fundamental_discriminant(delta):
            omega = len(arith.factorize(delta))
            assert qforms.weighted_class_number(delta) % 2 ** (omega - 1) == 0, delta


def test_disc_pairs():
    got = [(p.delta, p.delta_prime) for p in weber.disc_pairs(210)]
    assert got == [(1, -840), (-3, 280), (5, -168), (-7, 120), (-15, 56), (21, -40), (-35, 24), (105, -8)]
    assert [(p.delta, p.delta_prime) for p in weber.disc_pairs(2)] == [(1, -8)]
    assert [(p.delta, p.delta_prime) for p in weber.disc_pairs(30)] == [
        (1, -120),
        (-3, 40),
        (5, -24),
        (-15, 8),
    ]
    for p in weber.disc_pairs(210):
        assert p.delta * p.delta_prime == -840
        assert (p.delta > 0) != (p.delta_prime > 0)


def test_class_number_is_the_number_of_pairs():
    # every form of -4m is diagonal, so each class is its own genus and h = 2^t
    hs = [len(weber.disc_pairs(m)) for m in CONVENIENT]
    assert hs == [qforms.class_number(-4 * m) for m in CONVENIENT]
    assert sorted(set(hs)) == [1, 2, 4, 8]


def test_disc_pairs_rejects_bad_shape():
    for m in (15, 12, 4, 60):
        with pytest.raises(ValueError):
            weber.disc_pairs(m)


def test_surviving_sums_210():
    survivors = weber.weighted_sum_table(210)["survivors"]
    assert [s.delta for s in survivors] == [-3, 5, 21, -35]
    for s in survivors:
        assert tuple(s.coefficients[a] for a in (1, 3, 5, 7)) == DIFFERENCES_210[s.delta]
        assert s.coefficients[1] == 2
        assert arith.kronecker(2, s.delta) == -1


def test_surviving_sums_30():
    assert [s.delta for s in weber.weighted_sum_table(30)["survivors"]] == [-3, 5]


def test_homologue_weight_relation():
    # chi of the homologue equals (2/delta) times chi of the form
    for m in (30, 210):
        forms = qforms.reduced_forms(-4 * m)
        pairs = qforms.homologue_pairs(forms)
        for delta in arith.fundamental_discriminants_dividing(-4 * m):
            for Q, Qp in pairs:
                assert qforms.chi(delta, Qp) == arith.kronecker(2, delta) * qforms.chi(delta, Q)


def test_survivor_coefficients_collapse():
    survivors = weber.weighted_sum_table(210)["survivors"]
    total = {}
    for s in survivors:
        for a, c in s.coefficients.items():
            total[a] = total.get(a, 0) + c
    assert total == {1: 8, 3: 0, 5: 0, 7: 0}


def test_weighted_sum_total_collapse_numeric():
    # sum of the four surviving sums equals (32 pi / sqrt(210)) ln g_210
    with mp.workdps(50):
        total = mp.mpf(0)
        for s in weber.weighted_sum_table(210)["survivors"]:
            total += 4 * highprec.dirichlet_l_one(s.delta, 45) * highprec.dirichlet_l_one(s.pair.delta_prime, 45)
        rhs = 32 * mp.pi / mp.sqrt(210) * mp.log(highprec.gn_numeric(210, 45))
        assert abs(total - rhs) < mp.mpf("1e-30")


def test_weighted_sum_table_matches_golden():
    data = weber.weighted_sum_table(210)
    assert data["deltas"] == [1, -3, 5, -7, -15, 21, -35, 105]
    for row in data["rows"]:
        assert tuple(row["chi"][d] for d in data["deltas"]) == JACOBI_TABLE_210[row["label"]]
    for delta, expected in DIFFERENCES_210.items():
        got = data["differences"][delta]
        assert tuple(got[a] for a in (1, 3, 5, 7)) == expected


def test_weighted_sum_table_30_shape():
    data = weber.weighted_sum_table(30)
    assert len(data["rows"]) == 4
    assert len(data["deltas"]) == 4
    for row in data["rows"]:
        F = row["form"]
        assert row["chi"] == {d: qforms.chi(d, F) for d in data["deltas"]}


G210_FACTORS = {
    "251 + 30*sqrt(70)": Fraction(1, 12),
    "3/2 + 1/2*sqrt(5)": Fraction(1, 4),
    "5/2 + 1/2*sqrt(21)": Fraction(1, 4),
    "5 + 2*sqrt(6)": Fraction(1, 4),
}


def test_g210_exact_product(g210):
    product, value = g210
    assert {str(base): exp for base, exp in product.factors} == G210_FACTORS
    assert all_unit_norms(product)


def test_g210_matches_closed_form(g210):
    _, value = g210
    with mp.workdps(70):
        boxed = (
            mp.sqrt(mp.sqrt(2) + mp.sqrt(3))
            * mp.power(5 * mp.sqrt(5) + 3 * mp.sqrt(14), mp.mpf(1) / 6)
            * mp.sqrt((mp.sqrt(3) + mp.sqrt(7)) / 2)
            * mp.sqrt((mp.sqrt(5) + 1) / 2)
        )
        assert abs(value - boxed) < mp.mpf("1e-40")


def test_g2n_numeric_agrees_with_qseries():
    from singmod import highprec

    for n in (1, 3, 5, 15, 105):
        prec = 60
        _, value = weber.g2n(n, prec)
        with mp.workdps(prec + 10):
            assert abs(value - highprec.gn_numeric(2 * n, prec)) < mp.mpf(10) ** (10 - prec)


def test_g30_sixth_power_exact():
    product, _ = weber.g2n(15, 60)
    g12 = (product**12).expand_exact()
    from singmod.surd import exact_sqrt

    g6 = exact_sqrt(g12, ambient_primes=(2, 3, 5))
    assert g6 == SurdElement({1: 3, 10: 1}) * SurdElement({1: 2, 5: 1})


def test_exponent_denominators_divide_6h():
    # 2h from the double class number, one factor 3 from the weight at -3
    for n, h in ((105, 8), (15, 4), (5, 2), (3, 2)):
        product, _ = weber.g2n(n, 60)
        for _, exp in product.factors:
            assert (6 * h) % exp.denominator == 0


def test_g2_degenerate():
    product, value = weber.g2n(1, 60)
    assert product.factors == []
    with mp.workdps(60):
        assert abs(value - 1) < mp.mpf("1e-55")


def test_g2n_checks_the_precision_before_the_exact_work(monkeypatch):
    def unreachable(disc):
        raise AssertionError(f"reduced_forms({disc}) called before the precision check")

    monkeypatch.setattr(qforms, "reduced_forms", unreachable)
    with pytest.raises(ValueError, match="precision"):
        weber.g2n(15, -30)


def test_g2n_reduces_the_forms_once(monkeypatch):
    calls = []
    reduced_forms = qforms.reduced_forms

    def counting(disc):
        calls.append(disc)
        return reduced_forms(disc)

    monkeypatch.setattr(qforms, "reduced_forms", counting)
    weber.g2n(105, 60)
    # the one scan of -840 is the convenience test's lazy iter_reduced_forms,
    # h comes from the discriminant pairs, and the other calls are the class
    # numbers of the negative discriminants delta
    assert calls.count(-840) == 0, calls


def test_g2n_builds_no_homologue_table(monkeypatch):
    # the survivors come from the pairs with (2/delta) = -1, not from chi over homologues
    def unreachable(*args):
        raise AssertionError(f"homologue table built from {args}")

    monkeypatch.setattr(qforms, "homologue_pairs", unreachable)
    monkeypatch.setattr(qforms, "chi", unreachable)
    product, _ = weber.g2n(105, 60)
    assert {str(base): exp for base, exp in product.factors} == G210_FACTORS


def test_convenience_test_picks_the_fifteen():
    assert tuple(m for m in range(1, 3001) if weber.is_convenient(m)) == CONVENIENT
    for m in range(2, 3001, 4):
        if arith.is_squarefree(m // 2):
            diagonal = all(F.b == 0 for F in qforms.reduced_forms(-4 * m))
            assert weber.is_convenient(m) == diagonal, m


# 2 * (10^17 + 3) has the reduced form (3, 2, (1 + m)/3) and 390 = 2 * 3 * 5 * 13
# has (7, -6, 57): the forms scan rejects both before any trial division
@pytest.mark.parametrize("m", [2 * (10**17 + 3), 390])
@pytest.mark.parametrize(
    "entry",
    [lambda m: weber.g2n(m // 2, 60), weber.weighted_sum_table],
    ids=["g2n", "weighted_sum_table"],
)
def test_non_convenient_m_is_rejected_at_once(monkeypatch, entry, m):
    def no_trial_division(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr(arith, "squarefree_decompose", no_trial_division)
    start = time.perf_counter()
    with pytest.raises(ValueError):
        entry(m)
    assert time.perf_counter() - start < 1
