"""The weighted-sum machinery for m = 210: two total cancellations.

Each pair of homologous classes is weighted by the symbol (delta/(A + C)).
Summing over the eight fundamental discriminants dividing -840 kills every
non-principal class, and only the discriminants with (2/delta) = -1 keep a
nonzero sum; what remains is 4 ln g_210 against a product of two Dirichlet
L-values.  The class number formulas evaluate these in closed form with exact
class counts (rho cycles of reduced forms for delta > 0); below they are
summed as finite character sums instead, as an independent check.
"""

import mpmath as mp

from singmod import arith, highprec, qforms, weber

mp.mp.dps = 40

deltas = arith.fundamental_discriminants_dividing(-840)
data = weber.weighted_sum_table(210)

print("Jacobi symbols (delta / (A + C)), one row per reduced form:")
print("          " + "".join(f"{d:5d}" for d in deltas))
for row in data["rows"]:
    print(f"(d/{row['label']:<4d})  " + "".join(f"{row['chi'][d]:5d}" for d in deltas))

print()
print("Row sums over delta (the second cancellation):")
for row in data["rows"]:
    F = row["form"]
    total = sum(row["chi"][d] for d in deltas)
    tag = "principal class" if (F.a, F.c) == (1, 210) else ""
    print(f"  {F}: {total:2d}  {tag}")

print()
print("Surviving sums, coefficients of ln g_(210/A^2) by odd A:")
for s in data["survivors"]:
    print(f"  delta = {s.delta:4d}: {s.coefficients}   paired with delta' = {s.pair.delta_prime}")

print()
print("Each survivor evaluates through L(1, chi) L(1, chi'); for delta = -3:")
L3 = highprec.dirichlet_l_one(-3, 35)
L280 = highprec.dirichlet_l_one(280, 35)
print(f"  L(1, chi_-3)  = {mp.nstr(L3, 30)}  (= pi/(3 sqrt(3)))")
print(f"  L(1, chi_280) = {mp.nstr(L280, 30)}  (= 8/sqrt(280) ln(5 sqrt(5) + 3 sqrt(14)))")

print()
total = mp.mpf(0)
for s in data["survivors"]:
    total += 4 * highprec.dirichlet_l_one(s.delta, 35) * highprec.dirichlet_l_one(s.pair.delta_prime, 35)
rhs = 32 * mp.pi / mp.sqrt(210) * mp.log(highprec.gn_numeric(210, 35))
print("Summing all four survivors:")
print(f"  sum of 4 L L'            = {mp.nstr(total, 30)}")
print(f"  (32 pi / sqrt(210)) ln g = {mp.nstr(rhs, 30)}")
print(f"  difference: {mp.nstr(total - rhs, 3)}")
