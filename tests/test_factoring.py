"""Integer and polynomial factoring in fieldpoly, against sympy as reference.

sympy is a test dependency only: the package factors with its own exact
integer code, and these seeded tests pin it to sympy's `factor_list`,
`factorint` and `isprime`.
"""

import random

import sympy

from cantorconj.fieldpoly import (
    _strong_lucas_probable_prime,
    charpoly,
    count_real_roots,
    irreducible_factor_of_largest_root,
    irreducible_factors,
    is_prime,
    isolate_largest_real_root,
    poly_mul,
)
from cantorconj.invariants import _prime_factors

from test_telescoping import primitive_incidences

X = sympy.symbols("x")


def sympy_factors(p):
    """The distinct irreducible factors of p from sympy's factor_list, each
    with a positive leading coefficient."""
    expr = sum(int(c) * X**i for i, c in enumerate(p))
    out = set()
    for fac, _ in sympy.factor_list(sympy.Poly(expr, X))[1]:
        coeffs = [int(c) for c in reversed(sympy.Poly(fac, X).all_coeffs())]
        out.add(tuple(-c for c in coeffs) if coeffs[-1] < 0 else tuple(coeffs))
    return out


def sympy_largest_root_factor(p):
    """The factor selection on sympy's factors, as the package made it before
    it factored by itself."""
    lo, hi = isolate_largest_real_root(p)
    (f,) = [f for f in sympy_factors(p) if count_real_roots(f, lo, hi) >= 1]
    return f, (lo, hi)


def random_factor(rng, degree):
    lead = rng.choice((1, 1, 1, 2, 3))
    return tuple(rng.randint(-6, 6) for _ in range(degree)) + (lead,)


def random_product(rng):
    """A polynomial of degree at most 8: random factors of degree 1 to 4, some
    of them repeated, times a power of t or a linear factor with a negative
    rational root."""
    p, room = (1,), rng.randint(1, 8)
    while room:
        degree = rng.randint(1, min(4, room))
        f = random_factor(rng, degree)
        for _ in range(min(rng.choice((1, 1, 2, 3)), room // degree)):
            p = poly_mul(p, f)
            room -= degree
        if room and rng.random() < 0.3:
            extra = rng.choice(((0, 1), (rng.randint(1, 5), rng.randint(1, 4))))
            p = poly_mul(p, extra)  # t, or b t + a with the root -a/b < 0
            room -= 1
    return p


def test_factors_of_random_products_match_sympy():
    rng = random.Random(24)
    degrees = set()
    for _ in range(600):
        p = random_product(rng)
        got = irreducible_factors(p)
        assert len(set(got)) == len(got), p
        assert set(got) == sympy_factors(p), p
        degrees.add(len(p) - 1)
    assert degrees == set(range(1, 9))


def test_hard_factorizations_match_sympy():
    cases = [
        (576, 0, -960, 0, 352, 0, -40, 0, 1),  # Swinnerton-Dyer: splits mod every prime
        (1, 0, 0, 0, 0, 0, 0, 0, 1),  # t^8 + 1
        (-1, 0, 0, 0, 0, 0, 0, 0, 1),  # t^8 - 1: four cyclotomic factors
        (1,) * 9,
        (4, 0, 0, 0, 1),  # t^4 + 4 = (t^2 + 2t + 2)(t^2 - 2t + 2)
        (2, 0, 0, 0, 0, 0, 0, 0, -3),
        (0,) * 8 + (1,),
        poly_mul((1, 0, 1), poly_mul((1, 0, 1), (-2, 0, 0, 1))),  # repeated, and t^3 - 2
        poly_mul((3, 0, 0, 0, 2), (-3, 0, 0, 0, 2)),  # non-monic quartics
    ]
    for p in cases:
        assert set(irreducible_factors(p)) == sympy_factors(p), p


def test_largest_root_factor_of_every_small_incidence_matches_sympy():
    # every primitive 2x2 and 3x3 incidence with entries 0..2, from which
    # the P40' pool is drawn: the same minimal polynomial and interval
    polys = {charpoly(m) for n in (2, 3) for m in primitive_incidences(n)}
    for p in sorted(polys):
        assert set(irreducible_factors(p)) == sympy_factors(p), p
        assert irreducible_factor_of_largest_root(p) == sympy_largest_root_factor(p), p


def test_prime_factors_match_factorint():
    rng = random.Random(25)
    values = [0, 1, -1, 2, -2, 2**64, 3**40, 1009**5, 2**89 - 1]
    for _ in range(20):
        p = int(sympy.nextprime(rng.randrange(2, 10**6)))
        values.append(p ** rng.randint(1, 6))
    for i in range(8):
        # two 30-bit primes: Pollard-Brent rho, past trial division
        p, q = (int(sympy.nextprime(rng.getrandbits(30) | 1 << 29)) for _ in range(2))
        values.append((-1) ** i * p * q)
    for _ in range(20):
        # above 2^64: a prime, a prime times small ones, a 30-bit prime
        # times a 40-bit one times small ones, and a power
        big = int(sympy.nextprime(rng.getrandbits(rng.randint(65, 100)) | 1 << 64))
        p, q = (int(sympy.nextprime(rng.getrandbits(k))) for k in (30, 40))
        small = rng.randrange(2, 10**5)
        values += [big, big * small, p * q * small << 10, p**3]
    for n in values:
        assert _prime_factors(n) == set(sympy.factorint(abs(n))) - {0, 1}, n


def test_primality_matches_isprime():
    rng = random.Random(26)
    values = list(range(-3, 20000))
    values += [rng.getrandbits(rng.randint(20, 120)) for _ in range(400)]
    # strong pseudoprimes to every prime base through 23, 37 and 41: the
    # last is where Miller-Rabin on 13 bases stops being a proof
    values += [3825123056546413051, 318665857834031151167461, 3317044064679887385961981]
    values += [int(sympy.nextprime(2**k)) for k in (64, 81, 82, 100)]
    for n in values:
        assert is_prime(n) == sympy.isprime(n), n


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    # the odd composites below 10^5 passing the strong Lucas test with
    # Selfridge's parameters (OEIS A217255)
    known = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
    passing = [n for n in range(3, 10**5, 2) if _strong_lucas_probable_prime(n)]
    assert [n for n in passing if not sympy.isprime(n)] == known
