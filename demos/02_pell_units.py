"""Minimal solutions of T^2 - delta U^2 = 4 and the units they define.

Walking the rho cycle of the principal reduced form of discriminant delta
(or 4 delta) and multiplying its step matrices gives an automorph whose trace
is T; eps = (T + U sqrt(delta))/2 is a unit of norm one in the real quadratic
order, and these units are exactly what the g_{2n} product formula consumes.
"""

from singmod import pell
from singmod.surd import field_norm

print("delta   (T, U)        eps = (T + U sqrt(delta))/2       field norm")
for delta in (5, 8, 21, 24, 40, 56, 120, 168, 280):
    sol = pell.solve_even_pell(delta)
    eps = pell.unit_value(sol)
    print(f"{delta:5d}   {(sol.T, sol.U)!s:12}  {str(eps):30}  {field_norm(eps)}")

print()
print("The unit for 280 is a perfect square:")
from singmod.surd import SurdElement

eps280 = pell.unit_value(pell.solve_even_pell(280))
root = SurdElement({5: 5, 14: 3})
print(f"  {eps280} = ({root})^2 -> {root * root == eps280}")
