"""Arbitrary-precision numerics: AGM integrals, q-series, Epstein zeta values.

Every public operation takes a decimal-digit precision of at least 1 and
evaluates with guard digits inside an mpmath working context
(`working_precision`); returned values are accurate to roughly the requested
number of digits.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import mpmath as mp

from . import arith, pell, qforms

GUARD = 12  # guard digits added to every requested precision
_WALK_GUARD = 8  # bits beyond log2(number of values) for the fixed-point Epstein walk


def _check_precision(prec: int) -> None:
    if prec < 1:
        raise ValueError(f"precision must be at least 1 digit, got {prec}")


def working_precision(prec: int):
    """The context mp.workdps(prec + GUARD); ValueError for prec < 1."""
    _check_precision(prec)
    return mp.workdps(prec + GUARD)


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def ell_K(k, prec: int = 50):
    """Complete elliptic integral K(k) = pi / (2 agm(1, sqrt(1 - k^2)))."""
    with working_precision(prec):
        k = _to_mpf(k)
        if not 0 <= k < 1:
            raise ValueError(f"modulus must satisfy 0 <= k < 1, got {k}")
        return mp.pi / (2 * mp.agm(1, mp.sqrt(1 - k * k)))


def F_series(alpha, prec: int = 50):
    """Hypergeometric series 1 + (1/2)^2 a + (1*3/(2*4))^2 a^2 + ...

    Returns (partial_sum, tail_bound).  The sum equals (2/pi) K(sqrt(alpha)).
    """
    with working_precision(prec):
        a = _to_mpf(alpha)
        if not 0 <= a < 1:
            raise ValueError(f"series needs 0 <= alpha < 1, got {a}")
        eps = mp.mpf(10) ** (-(prec + GUARD // 2))
        total = mp.mpf(1)
        term = mp.mpf(1)
        for k in range(1, 10**6 + 1):  # the stop for alpha near 1
            term *= (mp.mpf(2 * k - 1) / (2 * k)) ** 2 * a
            total += term
            if term < eps * (1 - a):
                break
        bound = term * a / (1 - a)
        return total, bound


def verify_ratio_value(k, prec: int = 50):
    """K(k')/K(k) = agm(1, k')/agm(1, k) = F(1 - alpha)/F(alpha), alpha = k^2.

    k' = sqrt(1 - k*k) is taken from 1 - alpha, and k enters the AGM as it is.
    """
    with working_precision(prec):
        k = _to_mpf(k)
        if not 0 < k < 1:
            raise ValueError(f"ratio needs 0 < k < 1, got {k}")
        return mp.agm(1, mp.sqrt(1 - k * k)) / mp.agm(1, k)


def gn_numeric(n, prec: int = 50):
    """Ramanujan's invariant g_n from g_n^12 = theta4^4/(2 theta2^2 theta3^2).

    With the sums of `_theta_sums` at q = e^(-pi sqrt(n)) this is
    g_n^12 = s4^4/(8 sqrt(q) s2^2 s3^2).  For n < 2 it returns 1/g_(4/n):
    theta4 = 1 - 2q + ... cancels as q -> 1, while for n >= 2 q is below
    e^(-pi sqrt(2)) and every digit of the sums is kept.
    """
    with working_precision(prec):
        x = _to_mpf(n)
        if x <= 0:
            raise ValueError("g_n needs n > 0")
        flip = x < 2
        if flip:
            x = 4 / x
        r = mp.exp(-mp.pi * mp.sqrt(x) / 2)  # sqrt(q)
        s2, s3, s4 = _theta_sums(r * r, mp.mp.prec)
        g = mp.root(s4**4 / (8 * r * (s2 * s3) ** 2), 12)
        return 1 / g if flip else g


def _theta_sums(q, bits: int):
    """(s2, theta3, theta4) at the nome q, with theta2 = 2 q^(1/4) s2.

    theta3, theta4 = 1 +- 2 sum q^(n^2) (alternating for theta4) and
    s2 = sum_(n>=0) q^(n(n+1)).  Each power of q is one product from the last;
    the sums stop at |q^(n^2)| < 2^-(bits + 24), after O(sqrt(bits / -ln|q|))
    terms.  q may be real or complex; the sums have its type.
    """
    with mp.workprec(53):
        depth = float(-mp.log(abs(q)))
    N = int(math.sqrt((bits + 24) * math.log(2) / depth)) + 1
    qn = sq = rect = q * 0 + 1  # q^n, q^(n^2), q^(n(n+1)) at n = 0
    s2, s3, s4 = qn, qn, qn
    for n in range(1, N + 1):
        qn *= q
        sq = rect * qn
        rect = sq * qn
        s2 += rect
        s3 += 2 * sq
        s4 += (-2 if n % 2 else 2) * sq
    return s2, s3, s4


def _nome(tau):
    """q = e^(pi i tau): the real e^(-pi Im tau) on the imaginary axis, else complex."""
    if mp.re(tau) == 0:
        return mp.exp(-mp.pi * mp.im(tau))
    return mp.exp(1j * mp.pi * tau)


def _pow8(z):
    """z^8 by three squarings."""
    z *= z
    z *= z
    return z * z


def j_invariant(tau, prec: int = 50):
    """Klein j(tau) = 32 (theta2^8 + theta3^8 + theta4^8)^3 / (theta2 theta3 theta4)^8.

    With q = e^(pi i tau) (`_nome`) and the sums of `_theta_sums`,
    theta2^8 = 256 q^2 s2^8.  The eighth powers are three squarings each: for
    a complex base, mpmath's integer power goes through a complex log and exp.
    """
    with working_precision(prec):
        t = mp.mpc(tau)
        if mp.im(t) <= 0:
            raise ValueError("j needs Im(tau) > 0")
        q = _nome(t)
        s2, s3, s4 = _theta_sums(q, mp.mp.prec)
        p2, p3, p4 = (_pow8(s) for s in (s2, s3, s4))
        q2p2 = q * q * p2
        num = 256 * q2p2 + p3 + p4
        return num * num * num / (8 * q2p2 * p3 * p4)


def k_numeric(n, prec: int = 50):
    """Singular modulus k_n = theta2^2/theta3^2 = 4 sqrt(q) s2^2/s3^2 at q = e^(-pi sqrt(n)).

    One exponential and a few terms of `_theta_sums`; every term is positive,
    so no digit is lost to cancellation, however small k_n is.
    """
    with working_precision(prec):
        x = _to_mpf(n)
        if x <= 0:
            raise ValueError("k_n needs n > 0")
        r = mp.exp(-mp.pi * mp.sqrt(x) / 2)  # sqrt(q)
        s2, s3, _ = _theta_sums(r * r, mp.mp.prec)
        return 4 * r * (s2 / s3) ** 2


def _height_digits(disc: int, forms) -> int:
    """Decimal digits of prod (1 + |j_F|) over the reduced forms F = (a, b, c) of disc.

    Each |j_F| <= e^(pi sqrt|disc| / a) + 2079, so every coefficient of the
    class polynomial is below the product.  The logs are summed, so no float
    overflows however large |disc| is.
    """
    root, c = math.pi * math.sqrt(-disc), math.log(2080)
    total = 0.0
    for F in forms:
        x = root / F.a  # ln(2080 + e^x), without forming e^x
        total += max(x, c) + math.log1p(math.exp(-abs(x - c)))
    return math.ceil(total / math.log(10))


def class_polynomial(disc: int = -840, prec: int = 300) -> list[int]:
    """Monic minimal polynomial of j((-b + sqrt(disc))/(2a)) over the reduced forms.

    Returns the h+1 integer coefficients, highest degree first.  The output is
    exact integers, so every prec >= 1 is met; prec is only checked
    (ValueError below 1).  The working precision comes from the height of the
    polynomial: for a reduced form (a, b, c), |j| <= e^(pi sqrt|disc| / a) + 2079,
    so every coefficient is below prod (1 + |j_F|) (Enge, "The complexity of
    class polynomial computation via floating point approximations", Math.
    Comp. 78 (2009); Cohen, GTM 138, 7.6).  The j values and their product run
    at the digits of that bound plus GUARD, where one unit in the last place of
    the largest coefficient is at most 10^-GUARD; a rounding residual above
    1e-10 raises ArithmeticError.
    """
    _check_precision(prec)
    forms = qforms.reduced_forms(disc)
    digits = _height_digits(disc, forms)
    with working_precision(digits):
        root = mp.sqrt(-disc)
        jvals = []
        for F in forms:
            tau = (-F.b + 1j * root) / (2 * F.a)
            jvals.append(j_invariant(tau, digits))
        coeffs = [mp.mpc(1)]
        for jv in jvals:
            nxt = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, ci in enumerate(coeffs):
                nxt[i] += ci
                nxt[i + 1] -= ci * jv
            coeffs = nxt
        out = []
        worst = mp.mpf(0)
        for ci in coeffs:
            r = mp.re(ci)
            n = mp.nint(r)
            worst = max(worst, abs(r - n), abs(mp.im(ci)))
            out.append(int(n))
        if worst > mp.mpf("1e-10"):
            raise ArithmeticError(f"class polynomial rounding residual {mp.nstr(worst, 5)}")
        return out


# -- Dirichlet L-values at s = 1 (finite closed forms) ----------------------


def dirichlet_l_one(delta: int, prec: int = 50):
    """L(1, chi_delta) for a fundamental discriminant, by finite character sums.

    delta < 0:  pi |delta|^(-3/2) * sum_a chi(a) (|delta| - 2a)/2
    delta > 0:  -(1/sqrt(delta)) * sum_a chi(a) ln sin(pi a / delta)

    over 0 < a < |delta|.  The terms at a and |delta| - a are equal (chi is odd
    for delta < 0 and even for delta > 0), so each sum runs over a < |delta|/2
    and is doubled.  For delta > 0 the logs are one log of the ratio of two
    products of sin(pi a/delta), over chi(a) = 1 and chi(a) = -1, taken with
    log2(delta) guard bits for their roundings.
    """
    if not arith.is_fundamental_discriminant(delta) or delta == 1:
        raise ValueError(f"need a fundamental discriminant != 1, got {delta}")
    q = abs(delta)
    half = range(1, (q + 1) // 2)
    with working_precision(prec):
        if delta < 0:
            S = sum(2 * arith.kronecker(delta, a) * (q - 2 * a) for a in half)
            return mp.pi * S / (2 * mp.power(q, mp.mpf(3) / 2))
        with mp.workprec(mp.mp.prec + q.bit_length()):
            prods = {1: mp.mpf(1), -1: mp.mpf(1)}
            for a in half:
                chi = arith.kronecker(delta, a)
                if chi:
                    prods[chi] *= mp.sin(mp.pi * a / q)
            ratio = prods[1] / prods[-1]
        return -2 * mp.log(ratio) / mp.sqrt(delta)


def verify_dirichlet(delta: int, prec: int = 40):
    """(finite sum, class number formula) for L(1, chi_delta), delta fundamental and != 1.

    The formula is pi K / sqrt|delta| for delta < 0 and K log(eps) / sqrt(delta)
    for delta > 0, K = `qforms.weighted_class_number(delta)` and eps the
    fundamental even-Pell unit of Q(sqrt delta).
    """
    with working_precision(prec):
        finite = dirichlet_l_one(delta, prec)
        K = qforms.weighted_class_number(delta)
        if delta < 0:
            closed = mp.pi / mp.sqrt(-delta) * K.numerator / K.denominator
        else:
            eps = pell.unit_value(pell.solve_even_pell(delta)).evalf()
            closed = mp.log(eps) / mp.sqrt(delta) * K.numerator / K.denominator
        return finite, closed


# -- Epstein zeta: analytic continuation and the constant term at s = 1 -----


def _lattice_values(A: int, B: int, C: int, bound) -> Counter:
    """{Q: count} over the nonzero (x, y) with Q(x, y) = Ax^2 + 2Bxy + Cy^2 <= bound.

    The dual form (C, -B, A) takes at (y, -x) the value Q takes at (x, y), so
    this one count serves both halves of the incomplete-gamma representation.
    """
    m = A * C - B * B
    top = int(mp.floor(bound))
    counts = Counter()
    ymax = math.isqrt(A * top // m)
    for y in range(-ymax, ymax + 1):
        # A Q(x, y) = (Ax + By)^2 + m y^2, so |Ax + By| <= r
        r = math.isqrt(A * top - m * y * y)
        for x in range(-((r + B * y) // A), (r - B * y) // A + 1):
            if x or y:
                counts[A * x * x + 2 * B * x * y + C * y * y] += 1
    return counts


def _term_bits(x: float, bits: int) -> int:
    """Working bits for a lattice term of size about e^(-x) in a sum kept to `bits`.

    The term needs bits + 16 - floor(x / ln 2) bits.  The cap at `bits` keeps
    the leading terms at the sum's own precision (more would move the last
    bits of the sum), and the floor of 24 keeps mpmath's E1 and incomplete
    gamma accurate for the smallest terms.
    """
    return max(min(bits, bits + 16 - int(x / math.log(2))), 24)


def epstein_zeta(A: int, B: int, C: int, s, prec: int = 30):
    """Analytic continuation of sum' Q(x,y)^(-s) for the Gauss form (A, B, C).

    Uses the symmetric incomplete-gamma representation split at the self-dual
    point c = pi/sqrt(m); valid for real s != 1 (and s != 0).  The form and its
    dual represent the same values equally often, so each represented value Q
    is evaluated once and weighted by its count of lattice points.  Each term,
    of size about e^(-x) at x = cQ, is evaluated at
    max(min(bits, bits + 16 - floor(x / ln 2)), 24) bits (`_term_bits`); the
    sum itself runs at the full working precision `bits`.
    """
    m = A * C - B * B
    if m <= 0 or A <= 0:
        raise ValueError("form must be positive definite")
    with working_precision(prec):
        s = _to_mpf(s)
        if s == 1:
            raise ValueError("epstein_zeta has a pole at s = 1; use epstein_constant_term")
        bits = mp.mp.prec
        c = mp.pi / mp.sqrt(m)
        cutoff = _cutoff(c, bits)
        total = c**s * (1 / (s - 1) - 1 / s)
        dual = c ** (2 * s - 1)
        cf = float(c)
        for qv, count in sorted(_lattice_values(A, B, C, cutoff).items()):
            with mp.workprec(_term_bits(cf * qv, bits)):
                x = c * qv
                term = mp.gammainc(s, a=x) * mp.power(qv, -s)
                term += dual * mp.gammainc(1 - s, a=x) * mp.power(qv, s - 1)
            total += count * term
        return total / mp.gamma(s)


def _exp_e1_walk(c, qs, W: int):
    """Yield (e^(-x), E1(x)) at x = cQ for the increasing Q > 0 of qs, as integers over 2^W.

    c must carry W + 20 bits.  A run is seeded by one mp.exp and one mp.e1 at
    the first Q and wherever the gap dQ from the last Q exceeds Q/2; a seed is
    evaluated at `_term_bits(x, W)` bits, an absolute error of about
    2^-(W + 16).  Every other Q is one step x -> x + h, with h = c dQ and
    r = h/x = dQ/Q <= 1/2:

        E1(x + h) = E1(x) - e^(-x) sum_k (-1)^k p_k/(k + 1),
        p_0 = r,  p_k = r (h^k/k! + p_(k-1)),
        e^(-x-h) = e^(-x) sum_k (-1)^k h^k/k!,

    the first from E1(x + h) - E1(x) = -r int_0^1 e^(-ht)/(1 + rt) dt,
    expanded in t.  Both series run on their terms times e^(-x), in integers,
    and stop when those reach 0, the sooner the smaller e^(-x) is.  In fixed
    point a rounding costs one unit of 2^-W however much the alternating terms
    cancel, so a value's error grows by a few units a step.
    """
    c_hi = int(mp.ldexp(c, W + 20))
    cf = float(c)
    prev = 0
    for q in qs:
        dq = q - prev
        if 2 * dq > prev:
            with mp.workprec(_term_bits(cf * q, W)):
                x = c * q
                ex = int(mp.ldexp(mp.exp(-x), W))
                e1 = int(mp.ldexp(mp.e1(x), W))
        else:
            h = c_hi * dq >> 20
            a = e = ex
            b = s = ex * dq // prev
            k = 1
            while a or b:
                a = (a * h >> W) // k
                k += 1
                b = (a + b) * dq // prev
                if k & 1:
                    e += a
                    s += b // k
                else:
                    e -= a
                    s -= b // k
            e1 -= s
            ex = max(e, 0)  # below one unit e may round under 0, where a would never floor to 0
        prev = q
        yield ex, e1


def _lattice_sum(m: int, counts: Counter, bits: int):
    """sum count [e^(-cQ)/Q + c E1(cQ)] over {Q: count}, c = pi/sqrt(m), to 2^-bits.

    A count may be negative, and a value whose count is 0 is dropped.  The
    values are walked in increasing order in integer fixed point
    (`_exp_e1_walk`): one mp.exp and one mp.e1 seed each run, and every other
    value is one series step from the last.  The sum is kept as one integer
    over 2^W, W = bits + _WALK_GUARD + log2 of the number of values, so the
    roundings of all the steps stay below 2^-bits.
    """
    values = sorted((q, n) for q, n in counts.items() if n)
    W = bits + _WALK_GUARD + len(values).bit_length()
    with mp.workprec(W + 20):
        c = mp.pi / mp.sqrt(m)
    cfix = int(mp.ldexp(c, W))
    total = 0
    walk = _exp_e1_walk(c, (q for q, _ in values), W)
    for (q, count), (ex, e1) in zip(values, walk):
        total += count * (ex // q + (cfix * e1 >> W))
    return mp.ldexp(total, -W)


def _cutoff(c, bits: int):
    """The Q beyond which a lattice term, of size about e^(-cQ), is below 2^-(bits + 16)."""
    return (bits + 16) * mp.log(2) / c


def epstein_constant_term(A: int, B: int, C: int, prec: int = 30):
    """Constant term of sum' Q(x,y)^(-s) at s = 1 (pole pi/(sqrt(m)(s-1)) removed).

    c (euler + ln c - 1) + sum' [exp(-cQ)/Q + c E1(cQ)] with c = pi/sqrt(m).
    The sum runs once per represented value Q, times its count, up to
    cQ = (bits + 16) ln 2 at the working precision `bits`, as one fixed-point
    walk over the sorted values (`_lattice_sum`).
    """
    m = A * C - B * B
    if m <= 0 or A <= 0:
        raise ValueError("form must be positive definite")
    with working_precision(prec):
        bits = mp.mp.prec
        c = mp.pi / mp.sqrt(m)
        counts = _lattice_values(A, B, C, _cutoff(c, bits))
        return c * (mp.euler + mp.log(c) - 1) + _lattice_sum(m, counts, bits)


def grenzformel_rhs(A: int, B: int, C: int, prec: int = 30):
    """Kronecker's closed form for the Epstein constant term at s = 1.

    2 pi euler/sqrt(m) + (pi/sqrt(m)) ln(A/(4m)) - (2 pi/sqrt(m)) ln |eta(w)|^2
    at w = (B + i sqrt(m))/A; the form's second root -conj(w) has the same
    |eta|.  The constant term is a class invariant, so the form is reduced
    first (then Im w >= sqrt(3)/2), and with q = e^(pi i w) (`_nome`, real
    for B = 0) and the sums of `_theta_sums`, theta2 theta3 theta4 = 2 eta^3 gives
    ln |eta(w)|^2 = -pi Im(w)/6 + (2/3) ln |s2 s3 s4|.
    """
    with working_precision(prec):
        F, _ = qforms.reduce_form(qforms.QuadForm(A, 2 * B, C))
        A, B, m = F.a, F.b // 2, F.discriminant // -4
        rm = mp.sqrt(m)
        w = (B + 1j * rm) / A
        s2, s3, s4 = _theta_sums(_nome(w), mp.mp.prec)
        log_eta2 = -mp.pi * rm / (6 * A) + 2 * mp.log(abs(s2 * s3 * s4)) / 3
        return (
            2 * mp.pi * mp.euler / rm
            + mp.pi / rm * mp.log(mp.mpf(A) / (4 * m))
            - 2 * mp.pi / rm * log_eta2
        )


def verify_grenzformel(A: int, B: int, C: int, prec: int = 30):
    """Residual between the continued Epstein constant term and the closed form."""
    with working_precision(prec):
        return epstein_constant_term(A, B, C, prec) - grenzformel_rhs(A, B, C, prec)


def verify_formula_g(A: int, C: int, prec: int = 30):
    """Residual of lim [S_(A,0,2C) - S_(2A,0,C)] = (4 pi / sqrt(m)) ln g_(m/A^2), m = 2AC.

    Both forms have determinant m, so their poles and their closed parts
    c (euler + ln c - 1) cancel, and the limit is the lattice sum of
    `epstein_constant_term` over the difference of their counts: one walk over
    the values either form represents, each weighted by its count under the
    first form minus its count under the second.  For m = 2 the forms are
    equivalent and the sum is empty.
    """
    m = 2 * A * C
    with working_precision(prec):
        bits = mp.mp.prec
        cutoff = _cutoff(mp.pi / mp.sqrt(m), bits)
        counts = _lattice_values(A, 0, 2 * C, cutoff)
        counts.subtract(_lattice_values(2 * A, 0, C, cutoff))
        lhs = _lattice_sum(m, counts, bits)
        g = gn_numeric(Fraction(m, A * A), prec)
        rhs = 4 * mp.pi / mp.sqrt(m) * mp.log(g)
        return lhs - rhs
