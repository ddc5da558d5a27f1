"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is a finite sum  w^e1 * c1 + ... + w^en * cn  with ordinal
exponents e1 > e2 > ... > en and positive integer coefficients.  The empty
sum is 0 and finite ordinals are the single term with exponent 0.  Equality
is structural, comparison is lexicographic on the term list, and addition is
the natural (Hessenberg) sum that merges term lists.

Text form: "w^(E)*c" terms joined with " + ", a bare integer for the finite
part, "w" as shorthand for w^(1)*1.  Example: "w^(w)*1 + w^(1)*3 + 2".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering


class OrdinalParseError(ValueError):
    pass


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    terms: tuple  # ((exponent: Ordinal, coefficient: int), ...) descending

    def __post_init__(self):
        prev = None
        for exponent, coeff in self.terms:
            if not isinstance(exponent, Ordinal):
                raise TypeError("exponents must be ordinals")
            if coeff < 1:
                raise ValueError("coefficients must be positive")
            if prev is not None and not exponent < prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = exponent

    # -- ordering -----------------------------------------------------------

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2:
                return e1 < e2
            if c1 != c2:
                return c1 < c2
        return len(self.terms) < len(other.terms)

    # -- predicates and views -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_finite(self):
        return not self.terms or (len(self.terms) == 1
                                  and self.terms[0][0].is_zero())

    def finite_value(self):
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    def __str__(self):
        return print_ordinal(self)

    def __repr__(self):
        return f"Ordinal<{print_ordinal(self)}>"


ZERO = Ordinal(())
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_natural(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return ZERO if n == 0 else Ordinal(((ZERO, n),))


def natural_sum(a: Ordinal, b: Ordinal) -> Ordinal:
    """Hessenberg sum: merge the term lists, adding equal-exponent
    coefficients.  Commutative, associative, strictly monotone both ways."""
    merged = {}
    for exponent, coeff in a.terms + b.terms:
        merged[exponent] = merged.get(exponent, 0) + coeff
    ordered = sorted(merged.items(), key=lambda t: t[0], reverse=True)
    return Ordinal(tuple(ordered))


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------

def print_ordinal(a: Ordinal) -> str:
    if a.is_zero():
        return "0"
    if a == OMEGA:
        return "w"
    parts = []
    for exponent, coeff in a.terms:
        if exponent.is_zero():
            parts.append(str(coeff))
        else:
            parts.append(f"w^({print_ordinal(exponent)})*{coeff}")
    return " + ".join(parts)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the text form back into CNF.

    Accepts shorthands: "w" for w^(1)*1, "w^(E)" with an implied coefficient
    of 1, "w*c" for w^(1)*c, and terms in any order (they are merged with the
    natural sum, which restores canonical form).
    """
    tokens = _tokenize_ordinal(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise OrdinalParseError(
                f"expected {expected!r}, found {tok!r} in {text!r}")
        pos[0] += 1
        return tok

    def parse_sum():
        total = parse_term()
        while peek() == "+":
            take("+")
            total = natural_sum(total, parse_term())
        return total

    def parse_term():
        tok = peek()
        if tok == "w":
            take("w")
            exponent = ONE
            if peek() == "^":
                take("^")
                take("(")
                exponent = parse_sum()
                take(")")
            coeff = 1
            if peek() == "*":
                take("*")
                coeff_tok = take()
                if not coeff_tok.isdigit():
                    raise OrdinalParseError(
                        f"expected coefficient, found {coeff_tok!r}")
                coeff = _natural(coeff_tok)
                if coeff < 1:
                    raise OrdinalParseError("coefficient must be positive")
            return Ordinal(((exponent, coeff),))
        if tok is not None and tok.isdigit():
            take()
            return from_natural(_natural(tok))
        raise OrdinalParseError(f"unexpected token {tok!r} in {text!r}")

    result = parse_sum()
    if peek() is not None:
        raise OrdinalParseError(f"trailing input {peek()!r} in {text!r}")
    return result


def _natural(digits: str) -> int:
    """int(digits), with CPython's limit on the digits it converts from
    text (4300 by default) reported as an OrdinalParseError."""
    try:
        return int(digits)
    except ValueError:
        raise OrdinalParseError(
            f"integer of {len(digits)} digits in ordinal") from None


# Spaces, a token (an integer or a symbol), or a character of neither.
# `\d` is what int() reads; str.isdigit would also take such digits as
# '²', which int() refuses.
_ORDINAL_TOKEN = re.compile(r"\s+|(?P<token>\d+|[w^(*)+])|(?P<bad>.)",
                            re.DOTALL)


def _tokenize_ordinal(text: str):
    tokens = []
    for match in _ORDINAL_TOKEN.finditer(text):
        if match["bad"] is not None:
            raise OrdinalParseError(
                f"bad character {match['bad']!r} in ordinal {text!r}")
        if match["token"] is not None:
            tokens.append(match["token"])
    return tokens
