import math
import random
from fractions import Fraction

import pytest

from singmod import arith, qforms
from singmod.qforms import GLMatrix, QuadForm

FORMS_840 = [
    (1, 0, 210),
    (2, 0, 105),
    (3, 0, 70),
    (5, 0, 42),
    (6, 0, 35),
    (7, 0, 30),
    (10, 0, 21),
    (14, 0, 15),
]


def random_unimodular(rng: random.Random) -> GLMatrix:
    g = GLMatrix(1, 0, 0, 1)
    for _ in range(rng.randrange(1, 8)):
        k = rng.randrange(-4, 5)
        step = GLMatrix(1, k, 0, 1) if rng.random() < 0.5 else GLMatrix(1, 0, k, 1)
        g = g @ step
    if rng.random() < 0.5:
        g = g @ GLMatrix(0, -1, 1, 0)
    return g


def test_apply_golden():
    F = QuadForm(1, 0, 210)
    g = GLMatrix(4, -5, -3, 4)
    assert qforms.apply(g, F) == QuadForm(5266, -8424, 3369)


def test_apply_identity_and_inverse():
    rng = random.Random(3)
    F = QuadForm(2, 1, 40)
    assert qforms.apply(GLMatrix(1, 0, 0, 1), F) == F
    for _ in range(50):
        g = random_unimodular(rng)
        assert g.det == 1
        assert qforms.apply(GLMatrix(g.u, -g.s, -g.t, g.r), qforms.apply(g, F)) == F


def test_apply_preserves_discriminant():
    rng = random.Random(5)
    for _ in range(100):
        F = QuadForm(rng.randrange(1, 20), rng.randrange(-10, 10), rng.randrange(1, 40))
        if F.discriminant >= 0:
            continue
        g = random_unimodular(rng)
        assert qforms.apply(g, F).discriminant == F.discriminant


def test_apply_rejects_non_unimodular():
    with pytest.raises(ValueError):
        qforms.apply(GLMatrix(2, 0, 0, 1), QuadForm(1, 0, 1))


def test_reduce_golden():
    red, g = qforms.reduce_form(QuadForm(5266, -8424, 3369))
    assert red == QuadForm(1, 0, 210)
    assert g.det in (1, -1)
    assert qforms.apply(g, QuadForm(5266, -8424, 3369)) == red


def test_reduce_fixed_points():
    for F in (QuadForm(1, 0, 210), QuadForm(14, 0, 15), QuadForm(2, 1, 3)):
        red, g = qforms.reduce_form(F)
        assert red == F
        assert g == GLMatrix(1, 0, 0, 1)


def test_reduce_rejects_indefinite():
    with pytest.raises(ValueError):
        qforms.reduce_form(QuadForm(1, 5, 1))


def test_reduce_equivalence_sound():
    rng = random.Random(9)
    for F in [QuadForm(*t) for t in FORMS_840[:4]] + [QuadForm(2, 1, 3), QuadForm(3, 2, 5)]:
        base, _ = qforms.reduce_form(F)
        for _ in range(200):
            g = random_unimodular(rng)
            moved = qforms.apply(g, F)
            red, wit = qforms.reduce_form(moved)
            assert red == base
            assert qforms.reduce_form(red)[0] == red
            assert qforms.apply(wit, moved) == red


def reduced_forms_brute(disc: int) -> list[tuple[int, int, int]]:
    out = []
    bound = math.isqrt(-disc // 3) + 1
    for a in range(1, bound + 1):
        for b in range(-a, a + 1):
            for c in range(a, (-disc + b * b) // (4 * a) + 1):
                if b * b - 4 * a * c != disc:
                    continue
                if abs(b) == a and b != a:
                    continue
                if a == c and b < 0:
                    continue
                if math.gcd(math.gcd(a, b), c) != 1:
                    continue
                out.append((a, b, c))
    return sorted(out, key=lambda t: (t[0], t[2], t[1]))


def test_reduced_forms_golden_840():
    assert [(F.a, F.b, F.c) for F in qforms.reduced_forms(-840)] == FORMS_840


def test_reduced_forms_small_cases():
    assert [(F.a, F.b, F.c) for F in qforms.reduced_forms(-4)] == [(1, 0, 1)]
    assert len(qforms.reduced_forms(-23)) == 3
    for disc in (-23, -84, -120, -160, -163, -231):
        got = [(F.a, F.b, F.c) for F in qforms.reduced_forms(disc)]
        assert got == reduced_forms_brute(disc), disc


def test_reduced_forms_rejects_bad_disc():
    for disc in (840, -5, -6, 0):
        with pytest.raises(ValueError):
            qforms.reduced_forms(disc)


def test_class_numbers():
    assert qforms.class_number(-840) == 8
    assert qforms.class_number(-4) == 1
    assert qforms.class_number(-160) == 4


def test_weighted_class_numbers():
    assert qforms.weighted_class_number(-3) == Fraction(1, 3)
    assert qforms.weighted_class_number(-4) == Fraction(1, 2)
    assert qforms.weighted_class_number(5) == 1
    assert qforms.weighted_class_number(21) == 2
    assert qforms.weighted_class_number(280) == 4
    assert qforms.weighted_class_number(24) == 2
    assert qforms.weighted_class_number(-168) == 4
    assert qforms.weighted_class_number(-40) == 2
    assert qforms.weighted_class_number(-8) == 1
    assert qforms.weighted_class_number(8) == 1
    assert qforms.weighted_class_number(229) == 3  # h = 3, unit of norm -1


def test_rho_cycles_partition_the_reduced_indefinite_forms():
    for disc in (5, 8, 12, 21, 60, 280, 316, 1105):
        forms = qforms.reduced_indefinite_forms(disc)
        assert len(set(forms)) == len(forms)
        covered = []
        for F in forms:
            cycle, g = qforms.rho_cycle(F)
            # a changes sign at every step, so a cycle has even length
            assert len(cycle) % 2 == 0 and cycle[0] == F
            assert g.det == 1 and qforms.apply(g, F) == F
            assert set(cycle) <= set(forms)
            nxt, step = qforms.rho(F)
            assert step.det == 1 and nxt == cycle[1 % len(cycle)]
            if F not in covered:
                covered += cycle
        assert sorted(covered, key=str) == sorted(forms, key=str)


def test_reduced_indefinite_forms_reject_bad_discriminants():
    for disc in (0, 9, 7, -20):
        with pytest.raises(ValueError):
            qforms.reduced_indefinite_forms(disc)


def test_weighted_class_number_rejects_non_fundamental():
    with pytest.raises(ValueError):
        qforms.weighted_class_number(25)
    with pytest.raises(ValueError):
        qforms.weighted_class_number(-5)


def test_representation_count_golden():
    F = QuadForm(6, 0, 35)
    assert qforms.representation_count(F, 1769) == 8
    sols = {
        (x, y)
        for x in range(-20, 21)
        for y in range(-20, 21)
        if 6 * x * x + 35 * y * y == 1769
    }
    assert sols == {(3, 7), (3, -7), (-3, 7), (-3, -7), (17, 1), (17, -1), (-17, 1), (-17, -1)}
    assert qforms.representation_count(QuadForm(1, 0, 210), 211) == 4
    assert qforms.representation_count(QuadForm(1, 0, 210), 0) == 1


def test_total_representations_golden():
    assert qforms.total_representations(210, 1769) == 8
    assert qforms.total_representations(210, 1) == 2
    assert qforms.total_representations(210, 11) == 0


def test_representation_sum_matches_dirichlet_formula():
    # brute-force counts over all eight classes against 2 sum (-210/d)
    limit = 3000
    counts = [0] * limit
    for a, _, c in FORMS_840:
        for x in range(0, math.isqrt(limit // a) + 1):
            for y in range(0, math.isqrt(limit // c) + 1):
                v = a * x * x + c * y * y
                if v >= limit:
                    continue
                mult = (2 if x else 1) * (2 if y else 1)
                counts[v] += mult
    for N in range(1, limit):
        if math.gcd(N, 420) != 1:
            continue
        assert counts[N] == qforms.total_representations(210, N), N


def test_homologue_pairs():
    pairs = qforms.homologue_pairs(qforms.reduced_forms(-840))
    assert [((p.a, p.c), (q.a, q.c)) for p, q in pairs] == [
        ((1, 210), (2, 105)),
        ((3, 70), (6, 35)),
        ((5, 42), (10, 21)),
        ((7, 30), (14, 15)),
    ]
    assert [((p.a, p.c), (q.a, q.c)) for p, q in qforms.homologue_pairs(qforms.reduced_forms(-8))] == [
        ((1, 2), (2, 1))
    ]
    assert [((p.a, p.c), (q.a, q.c)) for p, q in qforms.homologue_pairs(qforms.reduced_forms(-40))] == [
        ((1, 10), (2, 5))
    ]


def test_homologue_pairs_rejects_non_diagonal():
    with pytest.raises(ValueError):
        qforms.homologue_pairs(qforms.reduced_forms(-136))


def test_iter_reduced_forms_is_lazy_and_complete():
    for disc in range(-3, -2000, -1):
        if disc % 4 in (0, 1):
            forms = list(qforms.iter_reduced_forms(disc))
            assert [F.a for F in forms] == sorted(F.a for F in forms), disc
            assert sorted(forms, key=lambda F: (F.a, F.c, F.b)) == qforms.reduced_forms(disc), disc
    # a caller stops at the first form it needs; the rest are not yet built
    it = qforms.iter_reduced_forms(-23)
    assert next(F for F in it if F.b) == QuadForm(1, 1, 6)
    assert list(it) == [QuadForm(2, -1, 3), QuadForm(2, 1, 3)]
    with pytest.raises(ValueError):
        next(qforms.iter_reduced_forms(-6))


def test_chi_golden():
    assert qforms.chi(-3, QuadForm(2, 0, 105)) == -1
    assert qforms.chi(105, QuadForm(14, 0, 15)) == -1
    for F in (QuadForm(1, 0, 210), QuadForm(7, 0, 30)):
        assert qforms.chi(1, F) == 1
    with pytest.raises(ValueError):
        qforms.chi(-3, QuadForm(2, 1, 3))


def test_chi_sums_over_discriminants():
    forms = qforms.reduced_forms(-840)
    deltas = arith.fundamental_discriminants_dividing(-840)
    for F in forms:
        total = sum(qforms.chi(d, F) for d in deltas)
        assert total == (8 if (F.a, F.c) == (1, 210) else 0)
