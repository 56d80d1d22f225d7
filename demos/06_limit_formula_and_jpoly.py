"""Independent numerical verification: Epstein zeta limits and the class polynomial.

The Epstein zeta function of each form is continued past s = 1 with the
incomplete-gamma representation.  Its constant term matches the eta closed
form, pair differences match (4 pi / sqrt(m)) ln g, and the eight j-values of
the reduced forms multiply into a degree-8 monic integer polynomial whose
coefficients reach a hundred digits.
"""

import mpmath as mp

from singmod import highprec

mp.mp.dps = 35

print("Constant term of the Epstein zeta at s = 1, against the eta closed form:")
for form in ((1, 0, 1), (1, 0, 210), (2, 0, 105), (5, 2, 7)):
    res = highprec.verify_grenzformel(*form, prec=30)
    print(f"  form {form}: residual {mp.nstr(res, 3)}")

print()
print("Pair differences against (4 pi / sqrt(210)) ln g_(210/A^2):")
for A, C in ((1, 105), (3, 35), (5, 21), (7, 15)):
    res = highprec.verify_formula_g(A, C, 30)
    print(f"  A = {A}, C = {C}: residual {mp.nstr(res, 3)}")

print()
print("j on the imaginary axis, classical checkpoints:")
print("  j(i) =", mp.nstr(highprec.j_invariant(mp.mpc(0, 1), 30), 20))
print("  j(i sqrt(210)) =", mp.nstr(highprec.j_invariant(mp.mpc(0, mp.sqrt(210)), 30), 25))

print()
print("The degree-8 class polynomial for discriminant -840 (precision sized from its height):")
coeffs = highprec.class_polynomial(-840)
for i, c in enumerate(coeffs):
    print(f"  x^{8 - i}: {c}")
