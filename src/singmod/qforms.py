"""Binary quadratic forms: reduction, class numbers, representations, pairings.

A form (a, b, c) stands for aX^2 + bXY + cY^2.  Gauss forms AX^2 + 2BXY + CY^2
of determinant m = AC - B^2 correspond to (A, 2B, C) with discriminant -4m.
Definite forms reduce to a unique representative; reduced indefinite forms
fall into rho cycles, one per proper class, and the product of a cycle's step
matrices is the automorph that carries the minimal even-Pell solution.  Every
class count here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith


@dataclass(frozen=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.discriminant < 0 and self.a > 0 and self.c > 0

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if abs(b) == a and b != a:
            return False
        if a == c and b < 0:
            return False
        return True

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        def term(coef: int, mono: str) -> str:
            return f"{coef}{mono}" if coef != 1 else mono

        parts = [term(self.a, "X^2")]
        if self.b:
            parts.append(("- " if self.b < 0 else "+ ") + term(abs(self.b), "XY"))
        parts.append("+ " + term(self.c, "Y^2"))
        return " ".join(parts)


@dataclass(frozen=True)
class GLMatrix:
    """Unimodular substitution matrix (r, s; t, u) with ru - st = +-1."""

    r: int
    s: int
    t: int
    u: int

    @property
    def det(self) -> int:
        return self.r * self.u - self.s * self.t

    def __matmul__(self, other: "GLMatrix") -> "GLMatrix":
        return GLMatrix(
            self.r * other.r + self.s * other.t,
            self.r * other.s + self.s * other.u,
            self.t * other.r + self.u * other.t,
            self.t * other.s + self.u * other.u,
        )


IDENTITY = GLMatrix(1, 0, 0, 1)


def apply(g: GLMatrix, F: QuadForm) -> QuadForm:
    """Transformed form gF, obtained by substituting X -> rX + tY, Y -> sX + uY."""
    if g.det not in (1, -1):
        raise ValueError(f"matrix determinant must be +-1, got {g.det}")
    r, s, t, u = g.r, g.s, g.t, g.u
    a = F(r, s)
    c = F(t, u)
    b = 2 * F.a * r * t + F.b * (r * u + s * t) + 2 * F.c * s * u
    return QuadForm(a, b, c)


def reduce_form(F: QuadForm) -> tuple[QuadForm, GLMatrix]:
    """Unique reduced representative of a positive definite form, with witness g.

    The witness satisfies apply(g, F) == reduced and det(g) = +1.
    """
    if not F.is_positive_definite():
        raise ValueError(f"form {F} is not positive definite")
    cur = F
    g = IDENTITY
    while not cur.is_reduced():
        a, b, c = cur.a, cur.b, cur.c
        if c < a or (c == a and b < 0):
            step = GLMatrix(0, -1, 1, 0)
        else:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            step = GLMatrix(1, 0, k, 1)
        cur = apply(step, cur)
        g = step @ g
    return cur, g


def iter_reduced_forms(disc: int):
    """The properly primitive reduced forms of negative discriminant, by increasing a.

    A generator, so a caller that needs only the first form of some kind can
    stop there.
    """
    if disc >= 0:
        raise ValueError(f"discriminant must be negative, got {disc}")
    if disc % 4 not in (0, 1):
        raise ValueError(f"discriminant must be 0 or 1 mod 4, got {disc}")
    a_max = math.isqrt(-disc // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + (a + disc) % 2, a + 1, 2):  # b = disc mod 2
            num = b * b - disc
            if num % (4 * a) == 0:
                F = QuadForm(a, b, num // (4 * a))
                if F.is_reduced() and math.gcd(a, b, F.c) == 1:
                    yield F


def reduced_forms(disc: int) -> list[QuadForm]:
    """All properly primitive reduced forms of negative discriminant, by (a, c)."""
    return sorted(iter_reduced_forms(disc), key=lambda F: (F.a, F.c, F.b))


def class_number(disc: int) -> int:
    return len(reduced_forms(disc))


def reduced_indefinite_forms(disc: int) -> list[QuadForm]:
    """All primitive reduced forms of positive nonsquare discriminant.

    (a, b, c) is reduced when |sqrt(disc) - 2|a|| < b < sqrt(disc); with
    r = isqrt(disc) that is 0 < b <= r and r - b < 2|a| <= r + b.
    """
    if disc <= 0 or disc % 4 not in (0, 1) or math.isqrt(disc) ** 2 == disc:
        raise ValueError(f"need a positive nonsquare discriminant, got {disc}")
    r = math.isqrt(disc)
    forms = []
    for b in range(r - (r - disc) % 2, 0, -2):
        ac = (b * b - disc) // 4
        for a in range((r - b) // 2 + 1, (r + b) // 2 + 1):
            if ac % a == 0 and math.gcd(math.gcd(a, b), ac // a) == 1:
                forms += [QuadForm(a, b, ac // a), QuadForm(-a, b, -ac // a)]
    return forms


def principal_form(disc: int) -> QuadForm:
    """The reduced form (1, b, (b^2 - disc)/4) of positive discriminant, b maximal."""
    b = math.isqrt(disc)
    b -= (b - disc) % 2
    return QuadForm(1, b, (b * b - disc) // 4)


def rho(F: QuadForm) -> tuple[QuadForm, GLMatrix]:
    """One reduction step (a, b, c) -> (c, b', .) of a reduced indefinite form.

    b' = -b + 2cs is the representative of -b mod 2|c| in (sqrt(D) - 2|c|, sqrt(D)),
    so the image is reduced again; the step matrix has determinant +1.
    """
    r = math.isqrt(F.discriminant)
    b = r - (r + F.b) % (2 * abs(F.c))
    step = GLMatrix(0, 1, -1, (F.b + b) // (2 * F.c))
    return apply(step, F), step


def rho_cycle(F: QuadForm) -> tuple[list[QuadForm], GLMatrix]:
    """The rho cycle of a reduced indefinite form and the product of its steps.

    The product g satisfies apply(g, F) == F: it is +-((T - bU)/2, aU; -cU,
    (T + bU)/2), the automorph of F for the minimal solution of T^2 - D U^2 = 4.
    """
    cycle, g = [F], IDENTITY
    while True:
        G, step = rho(cycle[-1])
        g = step @ g
        if G == F:
            return cycle, g
        cycle.append(G)


def weighted_class_number(delta: int) -> Fraction:
    """Class count K(delta) entering the Dirichlet formulas.

    Negative delta: the properly primitive class number, weighted 1/3 at -3 and
    1/2 at -4 (the extra units).  Positive delta: the narrow class number, the
    number of rho cycles of reduced forms (Gauss), for which the class number
    formula reads L(1, chi) = K * ln(eps) / sqrt(delta) with eps the minimal
    even-Pell unit.
    """
    if not arith.is_fundamental_discriminant(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    if delta == -3:
        return Fraction(1, 3)
    if delta == -4:
        return Fraction(1, 2)
    if delta < 0:
        return Fraction(class_number(delta))
    forms, cycles = set(reduced_indefinite_forms(delta)), 0
    while forms:
        forms.difference_update(rho_cycle(forms.pop())[0])
        cycles += 1
    return Fraction(cycles)


def representation_count(F: QuadForm, N: int) -> int:
    """Exact number of integer pairs with F(X, Y) = N, by bounded enumeration."""
    if not F.is_positive_definite():
        raise ValueError("representation_count needs a positive definite form")
    if N < 0:
        return 0
    count = 0
    x_max = math.isqrt(4 * F.c * N // (-F.discriminant)) + 1
    for x in range(-x_max, x_max + 1):
        # solve c y^2 + b x y + (a x^2 - N) = 0 over the integers
        disc_y = F.b * F.b * x * x - 4 * F.c * (F.a * x * x - N)
        if disc_y < 0:
            continue
        s = math.isqrt(disc_y)
        if s * s != disc_y:
            continue
        for sign in ((s, -s) if s else (s,)):
            num = -F.b * x + sign
            if num % (2 * F.c) == 0:
                count += 1
    return count


def total_representations(m: int, N: int) -> int:
    """Dirichlet's count 2 * sum over d | N of (-m/d) of proper representations."""
    return 2 * sum(arith.kronecker(-m, d) for d in arith.divisors(N))


def homologue_pairs(forms: list[QuadForm]) -> list[tuple[QuadForm, QuadForm]]:
    """Pair each diagonal form (A, 0, 2C) with its homologue (2A, 0, C).

    The second member is returned in homologue shape and may be non-reduced
    (its reduced class is (C, 0, 2A) when C < 2A); each unordered class pair
    appears once, keyed by the smaller leading coefficient.  Signals when a
    form is not diagonal (the determinant is then not convenient in the sense
    assumed here).
    """
    classes = set()
    for F in forms:
        if F.b != 0:
            raise ValueError(f"non-diagonal reduced form {F}; pairing undefined")
        classes.add((F.a, F.c))
    pairs = []
    covered = set()
    for F in sorted(forms, key=lambda f: f.a):
        if F.c % 2:
            continue
        partner = QuadForm(2 * F.a, 0, F.c // 2)
        pkey = (min(partner.a, partner.c), max(partner.a, partner.c))
        if pkey not in classes:
            raise ValueError(f"no homologue class for {F}")
        if (F.a, F.c) in covered:
            continue
        covered.update({(F.a, F.c), pkey})
        pairs.append((F, partner))
    if covered != classes:
        raise ValueError("forms do not pair off completely")
    return pairs


def chi(delta: int, F: QuadForm) -> int:
    """Weight chi(delta; A, C) = (delta / (A + C)) attached to a diagonal form."""
    if F.b != 0:
        raise ValueError(f"chi needs a diagonal form, got {F}")
    return arith.jacobi(delta % (F.a + F.c), F.a + F.c)
