import pytest

from singmod import modulus, weber
from singmod.surd import SurdElement, UnitProduct, exact_sqrt, field_norm


@pytest.fixture(scope="session")
def g210():
    return weber.g2n(105, 60)


@pytest.fixture(scope="session")
def k210():
    return modulus.singular_modulus(210, 50)


@pytest.fixture(scope="session")
def k30():
    return modulus.singular_modulus(30, 50)


def all_unit_norms(product: UnitProduct) -> bool:
    """Every base of the product has field norm +-1."""
    return all(abs(field_norm(b)) == 1 for b, _ in product.factors)


def alpha_from_unit_pair(u: SurdElement, v: SurdElement, ambient_primes=None) -> tuple[SurdElement, UnitProduct]:
    """alpha from uv = g^6 via 2U = u^2 + u^-2, 2V = v^2 + v^-2.

    W = sqrt(U^2 + V^2 - 1), 2S = U + V + W + 1, and alpha is the product of
    (sqrt(S - X) - sqrt(S - X - 1))^2 over X in {0, U, V, W}.  All roots exact.
    The paper's second route to alpha, kept as the oracle for the descent.
    """
    U = (u * u + (u * u).inverse()) / 2
    V = (v * v + (v * v).inverse()) / 2
    W = exact_sqrt(U * U + V * V - 1, ambient_primes=ambient_primes)
    S = (U + V + W + 1) / 2
    pieces = []
    for X in (SurdElement(0), U, V, W):
        hi = exact_sqrt(S - X, ambient_primes=ambient_primes)
        lo = exact_sqrt(S - X - 1, ambient_primes=ambient_primes)
        pieces.append(hi - lo)
    alpha = SurdElement(1)
    for f in pieces:
        alpha = alpha * (f * f)
    return alpha, UnitProduct([(f, 2) for f in pieces])
