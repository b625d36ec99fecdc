"""Dense integer polynomials in one variable t, as coefficient lists with
the constant term first.

Every denominator here is a product of factors 1 - t^m, so its constant
term is 1 and its leading coefficient is +-1: long division and power
series division both stay in the integers.
"""

from __future__ import annotations


def times_one_minus(p: list[int], m: int) -> list[int]:
    """p * (1 - t^m)."""
    out = p + [0] * m
    for k, v in enumerate(p):
        if v:
            out[k + m] -= v
    return out


def product_one_minus(exponents) -> list[int]:
    """prod over m in exponents of (1 - t^m)."""
    out = [1]
    for m in exponents:
        out = times_one_minus(out, m)
    return out


def _terms(den: list[int]) -> list[tuple[int, int]]:
    return [(j, c) for j, c in enumerate(den) if c]


def divmod_poly(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by den; den's leading coefficient is +-1."""
    top = len(den) - 1
    lead = den[top]
    if lead not in (1, -1):
        raise ValueError("the divisor must have leading coefficient +-1")
    rem = list(num)
    if len(rem) <= top:
        return [0], rem
    quot = [0] * (len(rem) - top)
    lower = [(j, c) for j, c in _terms(den) if j < top]
    for k in range(len(quot) - 1, -1, -1):
        q = rem[k + top] * lead
        if q:
            quot[k] = q
            rem[k + top] = 0
            for j, c in lower:
                rem[k + j] -= q * c
    return quot, rem[:top]


def series_quotient(num: list[int], den: list[int], length: int) -> list[int]:
    """The first `length` power series coefficients of num/den (den[0] == 1)."""
    if den[0] != 1:
        raise ValueError("the divisor must have constant term 1")
    higher = _terms(den)[1:]
    out = (num + [0] * length)[:length]
    for k in range(length):
        v = out[k]
        if v:
            for j, c in higher:
                if k + j < length:
                    out[k + j] -= c * v
    return out
