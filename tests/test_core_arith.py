"""Integer primitives: gcd conventions, valuations, triple algebra, gcd-splitting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_forge.core_arith import (
    MILLER_RABIN_LIMIT,
    PythTriple,
    TRIAL_PRIMALITY_LIMIT,
    _is_strong_probable_prime,
    coprime_split,
    factorize,
    gcd,
    is_prime,
    isqrt_exact,
    nu,
    nu_p,
    pythagorean_compose,
    pythagorean_decompose,
)
from descent_forge.errors import (
    BoundExceeded,
    DegenerateInput,
    InvalidGenerators,
    NotATriple,
    NotPrime,
    NotPrimitive,
    ParityError,
    SplitPreconditionFailed,
    UndefinedValuation,
)


@pytest.mark.parametrize(
    "a,b,expected",
    [(12, 18, 6), (1, 0, 1), (-6, 35, 1), (0, 7, 7), (-4, -6, 2)],
)
def test_gcd_values(a, b, expected):
    assert gcd(a, b) == expected


def test_gcd_rejects_two_zeros():
    with pytest.raises(DegenerateInput):
        gcd(0, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_gcd_commutes_and_divides(a, b):
    if a == 0 and b == 0:
        return
    g = gcd(a, b)
    assert g == gcd(b, a)
    assert g > 0
    assert a % g == 0 and b % g == 0


@given(
    st.integers(-10**4, 10**4),
    st.integers(-10**4, 10**4),
    st.integers(-10**4, 10**4),
)
def test_gcd_folds_associatively(a, b, c):
    if (a, b, c) == (0, 0, 0):
        return
    left = math.gcd(math.gcd(a, b), c)
    right = math.gcd(a, math.gcd(b, c))
    assert left == right


@pytest.mark.parametrize("p,a,expected", [(2, 12, 2), (3, 1, 0), (7, -343, 3), (5, 7, 0)])
def test_nu_p_values(p, a, expected):
    assert nu_p(p, a) == expected


def test_nu_p_rejects_zero_argument():
    with pytest.raises(UndefinedValuation):
        nu_p(5, 0)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 100])
def test_nu_p_rejects_composite_or_small(p):
    with pytest.raises(NotPrime):
        nu_p(p, 10)


def test_nu_p_checks_primality_above_trial_limit():
    # 10^6 + 1 = 101 * 9901 is the first composite past trial division.
    assert not is_prime(TRIAL_PRIMALITY_LIMIT + 1)
    with pytest.raises(NotPrime):
        nu_p(TRIAL_PRIMALITY_LIMIT + 1, 10)
    assert nu_p(1_000_003, 1_000_003**2) == 2
    assert nu_p(1_000_003, 7) == 0
    # The least strong pseudoprime to the bases 2..23; bases 29..41 expose it.
    with pytest.raises(NotPrime):
        nu_p(3825123056546413051, 3825123056546413051)
    # 2^61 - 1 is prime and far past trial division.
    assert nu_p(2**61 - 1, 2 * (2**61 - 1)) == 1


def test_nu_p_refuses_primes_past_the_miller_rabin_range():
    # 2^89 - 1 is a Mersenne prime above the limit, where the fixed bases
    # no longer decide primality.
    assert 2**89 - 1 > MILLER_RABIN_LIMIT
    with pytest.raises(BoundExceeded):
        nu_p(2**89 - 1, 5)
    with pytest.raises(BoundExceeded):
        nu_p(MILLER_RABIN_LIMIT, 5)


def test_miller_rabin_agrees_with_trial_division():
    for n in range(43, 20000, 2):
        assert _is_strong_probable_prime(n) == is_prime(n)


@pytest.mark.parametrize("a,expected", [(12, 3), (1, 0), (-1, 0), (-6, 2), (2**10, 10), (97, 1)])
def test_nu_values(a, expected):
    assert nu(a) == expected


def test_nu_rejects_zero():
    with pytest.raises(UndefinedValuation):
        nu(0)


def test_nu_matches_factorization_oracle_up_to_1e5():
    """Factor-count of every 1 <= a <= 10^5 against a smallest-prime-factor sieve."""
    limit = 10**5
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p

    def factor_count(a: int) -> int:
        count = 0
        while a > 1:
            a //= spf[a]
            count += 1
        return count

    for a in range(1, limit + 1):
        assert nu(a) == factor_count(a)
        assert nu(-a) == factor_count(a)

    # Spot-check the summation form directly on a few values: nu equals the
    # sum of per-prime valuations over all primes up to the argument.
    primes = [p for p in range(2, 101) if spf[p] == p]
    for a in (2, 30, 64, 97, 100):
        assert nu(a) == sum(nu_p(p, a) for p in primes if p <= a)


def test_factorize_nu_and_is_prime_match_brute_force_up_to_2000():
    def divides_none(p: int, candidates: range) -> bool:
        return all(p % d for d in candidates)

    for n in range(1, 2001):
        pairs = factorize(n)
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes))
        assert math.prod(p**e for p, e in pairs) == n
        for p, e in pairs:
            assert e >= 1 and p >= 2 and divides_none(p, range(2, math.isqrt(p) + 1))
        assert factorize(-n) == pairs

        count, rest, d = 0, n, 2
        while rest > 1:
            if rest % d == 0:
                rest //= d
                count += 1
            else:
                d += 1
        assert nu(n) == count
        assert is_prime(n) == (n >= 2 and divides_none(n, range(2, n)))


def test_factorize_rejects_zero():
    with pytest.raises(UndefinedValuation):
        factorize(0)


@pytest.mark.parametrize("a,expected", [(49, 7), (8, None), (0, 0), (1, 1), (-4, None)])
def test_isqrt_exact_values(a, expected):
    assert isqrt_exact(a) == expected


@given(st.integers(1, 10**6))
def test_isqrt_exact_round_trip_and_near_miss(r):
    assert isqrt_exact(r * r) == r
    assert isqrt_exact(r * r + 1) is None


@pytest.mark.parametrize(
    "u,v,triple,primitive",
    [
        (2, 1, (3, 4, 5), True),
        (1, 0, (1, 0, 1), True),
        (3, 1, (8, 6, 10), False),
        (5, 2, (21, 20, 29), True),
    ],
)
def test_pythagorean_compose(u, v, triple, primitive):
    result = pythagorean_compose(u, v)
    assert (result.a, result.b, result.c) == triple
    assert result.primitive is primitive
    assert result.generators == (u, v)
    assert result.a**2 + result.b**2 == result.c**2


@pytest.mark.parametrize("u,v", [(1, 1), (0, 0), (2, 3), (4, 2), (2, -1)])
def test_pythagorean_compose_rejects_bad_generators(u, v):
    with pytest.raises(InvalidGenerators):
        pythagorean_compose(u, v)


def _decompose_oracle(a: int, b: int, c: int, limit: int = 5) -> tuple[int, int] | None:
    """Exhaustive generator search; ground truth for small decompositions."""
    for u in range(limit + 1):
        for v in range(u):
            if math.gcd(u, v) == 1 and (u * u - v * v, 2 * u * v, u * u + v * v) == (a, b, c):
                return u, v
    return None


@pytest.mark.parametrize("triple,expected", [((3, 4, 5), (2, 1)), ((1, 0, 1), (1, 0)), ((5, 12, 13), (3, 2))])
def test_pythagorean_decompose_matches_oracle(triple, expected):
    assert _decompose_oracle(*triple) == expected
    assert pythagorean_decompose(*triple) == expected


@pytest.mark.parametrize(
    "triple,error",
    [
        ((9, 12, 15), NotPrimitive),
        ((3, 4, 6), NotATriple),
        ((4, 3, 5), ParityError),
        ((-3, 4, 5), ParityError),
        ((3, -4, 5), ParityError),
    ],
)
def test_pythagorean_decompose_rejections(triple, error):
    with pytest.raises(error):
        pythagorean_decompose(*triple)


def test_compose_decompose_round_trip_small():
    for u in range(1, 61):
        for v in range(u):
            if math.gcd(u, v) != 1 or (u - v) % 2 == 0:
                continue
            triple = pythagorean_compose(u, v)
            assert pythagorean_decompose(triple.a, triple.b, triple.c) == (u, v)


@pytest.mark.parametrize(
    "quad,expected",
    [
        ((6, 35, 10, 21), (2, 3, 5, 7)),
        ((1, 1, 1, 1), (1, 1, 1, 1)),
        ((-6, 35, 10, -21), (2, 3, 5, 7)),
        ((15, 14, 21, 10), (3, 5, 7, 2)),
    ],
)
def test_coprime_split_values(quad, expected):
    assert coprime_split(*quad) == expected


@pytest.mark.parametrize(
    "quad",
    [
        (4, 3, 6, 2),  # gcd(6, 2) != 1 on the primed side
        (0, 5, 0, 5),  # zero product
        (6, 35, 10, 20),  # products differ
        (6, 9, 27, 2),  # gcd(6, 9) != 1
    ],
)
def test_coprime_split_precondition_failures(quad):
    with pytest.raises(SplitPreconditionFailed):
        coprime_split(*quad)


@settings(max_examples=200)
@given(st.tuples(*[st.integers(1, 300)] * 4))
def test_coprime_split_rebuilds_pairwise_coprime_parts(parts):
    p, q, r, s = parts
    pairs = [(p, q), (p, r), (p, s), (q, r), (q, s), (r, s)]
    if any(math.gcd(a, b) != 1 for a, b in pairs):
        return
    assert coprime_split(p * q, r * s, p * r, q * s) == (p, q, r, s)


def test_pyth_triple_value_class(check_value_class):
    check_value_class(
        PythTriple,
        {"a": 3, "b": 4, "c": 5, "primitive": True, "generators": (2, 1)},
        defaults={"generators": None},
        repr_text="PythTriple(a=3, b=4, c=5, primitive=True, generators=(2, 1))",
    )
    assert pythagorean_compose(2, 1) == PythTriple(3, 4, 5, True, (2, 1))
