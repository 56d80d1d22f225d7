"""The product formula for g_{2n}: every invariant is a product of Pell units.

g_m^(2h) = product over surviving discriminants of eps^(K(delta) K(delta')),
with h the class number of determinant m.  The exact unit product is checked
against the theta series g_m^12 = theta4^4/(2 theta2^2 theta3^2) at q = e^(-pi sqrt(m)).
"""

import mpmath as mp

from singmod import highprec, weber
from singmod.surd import exact_sqrt

mp.mp.dps = 50

for n in (1, 3, 5, 15, 105):
    m = 2 * n
    product, value = weber.g2n(n, 50)
    qseries = highprec.gn_numeric(m, 50)
    print(f"g_{m}:")
    print(f"  = {product}")
    print(f"  = {mp.nstr(value, 40)}")
    print(f"  q-series residual: {mp.nstr(value - qseries, 3)}")
    print()

print("g_30^6 lands back in the field exactly:")
product, _ = weber.g2n(15, 50)
g12 = (product**12).expand_exact()
g6 = exact_sqrt(g12, ambient_primes=(2, 3, 5))
print(f"  g_30^12 = {g12}")
print(f"  g_30^6  = {g6}  (= (3 + sqrt(10))(2 + sqrt(5)))")
