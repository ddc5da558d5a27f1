import pytest

from pastlab.ordinal import (OMEGA, ONE, Ordinal, OrdinalParseError, ZERO,
                             from_natural, natural_sum, parse_ordinal,
                             print_ordinal)


def random_ordinal(rng, height):
    """Random ordinal with omega-tower height at most `height` (height 3
    keeps everything below w^w^w)."""
    if height == 0:
        return from_natural(rng.randrange(0, 30))
    term_count = rng.randrange(0, 4)
    total = from_natural(rng.randrange(0, 5))
    for _ in range(term_count):
        exponent = random_ordinal(rng, height - 1)
        coefficient = rng.randrange(1, 5)
        term = Ordinal(((exponent, coefficient),)) if exponent != ZERO \
            else from_natural(coefficient)
        total = natural_sum(total, term)
    return total


def test_compare_examples():
    assert OMEGA > from_natural(5)
    assert natural_sum(OMEGA, ONE) == natural_sum(OMEGA, ONE)
    thousand = natural_sum(Ordinal(((ONE, 1000),)), from_natural(999))
    assert Ordinal(((OMEGA, 1),)) > thousand


def test_natural_sum_examples():
    assert natural_sum(natural_sum(OMEGA, ONE), OMEGA) == \
        natural_sum(Ordinal(((ONE, 2),)), ONE)
    value = Ordinal(((Ordinal(((ONE, 1),)), 1),))
    assert natural_sum(ZERO, value) == value
    left = natural_sum(Ordinal(((OMEGA, 1),)), OMEGA)
    assert natural_sum(left, Ordinal(((ONE, 2),))) == \
        natural_sum(Ordinal(((OMEGA, 1),)), Ordinal(((ONE, 3),)))


def test_omega_pow():
    assert Ordinal(((ZERO, 1),)) == ONE
    assert Ordinal(((ONE, 1),)) == OMEGA
    assert print_ordinal(Ordinal(((OMEGA, 1),))) == "w^(w)*1"


def test_from_natural_successor_finite():
    assert from_natural(0) == ZERO
    assert natural_sum(OMEGA, ONE) == natural_sum(OMEGA, ONE)
    assert not OMEGA.is_finite()
    assert from_natural(7).is_finite()
    assert from_natural(7).finite_value() == 7


def test_canonical_form_enforced():
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 0),))
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # increasing exponents


def test_print_examples():
    value = natural_sum(Ordinal(((OMEGA, 1),)),
                        natural_sum(Ordinal(((ONE, 3),)), from_natural(2)))
    assert print_ordinal(value) == "w^(w)*1 + w^(1)*3 + 2"
    assert print_ordinal(ZERO) == "0"
    assert print_ordinal(OMEGA) == "w"


def test_parse_round_trip_random(rng):
    for _ in range(200):
        value = random_ordinal(rng, 3)
        assert parse_ordinal(print_ordinal(value)) == value


def test_parse_shorthands():
    assert parse_ordinal("w") == OMEGA
    assert parse_ordinal("w*3") == Ordinal(((ONE, 3),))
    assert parse_ordinal("w^(2)") == Ordinal(((from_natural(2), 1),))
    assert parse_ordinal("1 + w") == natural_sum(OMEGA, ONE)  # merged to CNF


def test_parse_errors():
    # int() refuses an integer of more than 4300 digits of text by default.
    for bad in ("", "w^", "w^(", "q", "1 +", "w*0", "1" * 5000,
                "w*" + "1" * 5000):
        with pytest.raises(OrdinalParseError):
            parse_ordinal(bad)


def test_digits_int_cannot_read_are_bad_characters():
    # '²' and '①' are digits to str.isdigit but not to int().
    for bad, char in (("²", "²"), ("1²", "²"), ("w*²", "²"), ("w^(①)", "①")):
        with pytest.raises(OrdinalParseError,
                           match=f"bad character '{char}'"):
            parse_ordinal(bad)
    # Decimal digits of any script are read as int() reads them.
    assert parse_ordinal("w*\u0663 + \u0661") == parse_ordinal("w*3 + 1")


def test_laws_randomized(rng):
    for _ in range(300):
        a = random_ordinal(rng, 3)
        b = random_ordinal(rng, 3)
        c = random_ordinal(rng, 3)
        assert natural_sum(a, b) == natural_sum(b, a)
        assert natural_sum(natural_sum(a, b), c) == \
            natural_sum(a, natural_sum(b, c))
        # strict monotonicity
        bigger = natural_sum(a, ONE)
        assert natural_sum(a, c) < natural_sum(bigger, c)
        # total order consistent with equality
        assert (not a < b and not b < a) == (a == b)
        assert (a < b) == (b > a)


def test_order_transitivity(rng):
    values = [random_ordinal(rng, 3) for _ in range(40)]
    values.sort()
    for earlier, later in zip(values, values[1:]):
        assert not later < earlier


def test_no_infinite_descent(rng):
    # Repeatedly stepping down to a randomly generated strictly smaller
    # ordinal always bottoms out.
    for _ in range(40):
        current = random_ordinal(rng, 3)
        steps = 0
        while current != ZERO:
            steps += 1
            assert steps < 10_000
            candidate = random_ordinal(rng, 3)
            while not candidate < current:
                # shrink aggressively so the loop terminates fast
                if candidate == ZERO:
                    break
                exponent, coeff = candidate.terms[0]
                if coeff > 1:
                    candidate = Ordinal(((exponent, coeff - 1),)
                                        + candidate.terms[1:])
                else:
                    candidate = Ordinal(candidate.terms[1:])
            current = candidate
