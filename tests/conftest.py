import math

import pytest

from affsemi import (
    CurveExponents,
    GeneratorSystem,
    InvalidGeneratorsError,
    build_chain,
    validate_conditions,
)
from affsemi import frobenius
from affsemi.frobenius import in_closed_cone
from affsemi.lattice import add


@pytest.fixture(autouse=True)
def fresh_prepared_cache():
    """Empty the prepared-analysis cache around every test, so a test that
    patches a function the analysis calls neither reads a result prepared
    without the patch nor leaves one prepared with it."""
    frobenius._prepared.cache_clear()
    yield
    frobenius._prepared.cache_clear()


def make_system(vectors):
    return GeneratorSystem.from_vectors([tuple(v) for v in vectors])


def random_curve_exponents(rng, max_steps=3, factor_pool=(2, 2, 2, 3, 3, 5)):
    """Build valid exponent data constructively from a factored gcd chain."""
    steps = rng.randint(1, max_steps)
    factors = [rng.choice(factor_pool) for _ in range(steps)]
    # gcd chain d_1 > d_2 > ... > d_{h+1} = 1 with d_k = product of the
    # factors from position k on; the multiplicity is d_1.
    d = [math.prod(factors[k:]) for k in range(steps + 1)]
    n = d[0]
    exponents = []
    previous = n
    for k in range(1, steps + 1):
        # The k-th exponent must be a multiple of d[k] coprime to the factor
        # being removed, strictly above its predecessor.
        while True:
            t = rng.randint(previous // d[k] + 1, previous // d[k] + 6)
            if math.gcd(t, factors[k - 1]) == 1:
                break
        exponents.append(t * d[k])
        previous = exponents[-1]
    return CurveExponents(n, tuple(exponents))


def random_system(rng, e, extra_count, max_entry=12):
    """Generator system with extras in the cone of a random leading block.

    The leading determinant takes either sign (e >= 2), and about a quarter
    of the extras are sums of two earlier generators, so their level has
    index 1.
    """
    while True:
        leading = [
            tuple(rng.randint(0, max_entry) for _ in range(e)) for _ in range(e)
        ]
        try:
            leading_system = GeneratorSystem(e, tuple(leading))
        except InvalidGeneratorsError:
            continue
        break
    vectors = list(leading)
    while len(vectors) < e + extra_count:
        if rng.random() < 0.25:
            vectors.append(add(rng.choice(vectors), rng.choice(vectors)))
            continue
        candidate = tuple(rng.randint(0, max_entry) for _ in range(e))
        if any(candidate) and in_closed_cone(leading_system, candidate):
            vectors.append(candidate)
    return GeneratorSystem(e, tuple(vectors))


def analyzed(vectors):
    """System, chain and condition report, ready to use."""
    system = make_system(vectors)
    chain = build_chain(system)
    report = validate_conditions(system, chain)
    return system, chain, report


@pytest.fixture
def numerical_example():
    """One-dimensional fixture: generators 4, 6, 7."""
    return analyzed([(4,), (6,), (7,)])


@pytest.fixture
def axes_example():
    """Planar fixture on scaled axes: (8,0), (0,8), (2,2), (12,8)."""
    return analyzed([(8, 0), (0, 8), (2, 2), (12, 8)])


@pytest.fixture
def skew_example():
    """Planar fixture with a skew cone: (4,6), (6,3), (8,10), (3,4)."""
    return analyzed([(4, 6), (6, 3), (8, 10), (3, 4)])


@pytest.fixture
def unimodular_example():
    """Planar fixture spanning all of Z^2: (1,3), (3,2), (1,1)."""
    return analyzed([(1, 3), (3, 2), (1, 1)])
