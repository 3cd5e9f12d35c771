import random

import pytest

from weylpi.errors import ParseError, ResourceLimit, UnknownVariable
from weylpi.fields import Field
from weylpi.free_algebra import NCPoly, st3
from weylpi.parser import format_poly, parse_poly

QQ = Field.rationals()
F7 = Field.prime(7)


def test_st3_text():
    assert parse_poly("x1*[x2,x3] - x2*[x1,x3] + x3*[x1,x2]", QQ) == st3(QQ)


def test_self_commutator_is_zero():
    assert parse_poly("[x1,x1]", QQ).is_zero()


def test_rational_coefficient_and_power():
    f = parse_poly("2/3*x1^2", QQ)
    assert f.terms == {(1, 1): QQ.of(2, 3)}


def test_precedence_and_parentheses():
    assert parse_poly("x1*x2^2", QQ) == parse_poly("x1*(x2*x2)", QQ)
    assert parse_poly("(x1+x2)*x3", QQ) == parse_poly("x1*x3 + x2*x3", QQ)
    assert parse_poly("-x1 + x1", QQ).is_zero()
    assert parse_poly("0", QQ).is_zero()


def test_whitespace_insignificant():
    assert parse_poly(" x1 * [ x2 , x3 ] ", QQ) == parse_poly("x1*[x2,x3]", QQ)


def test_syntax_error_position():
    with pytest.raises(ParseError) as ei:
        parse_poly("x1 + @", QQ)
    assert ei.value.pos == 5
    with pytest.raises(ParseError):
        parse_poly("x1*", QQ)
    with pytest.raises(ParseError):
        parse_poly("[x1,x2", QQ)
    with pytest.raises(ParseError):
        parse_poly("x1^(2)", QQ)


def test_non_invertible_denominator_is_a_parse_error():
    with pytest.raises(ParseError) as ei:
        parse_poly("x1 + 1/0", QQ)
    assert ei.value.pos == 7
    with pytest.raises(ParseError) as ei:
        parse_poly("3/5*x1", Field.prime(5))
    assert ei.value.pos == 2
    assert parse_poly("3/5*x1", F7) == parse_poly("2*x1", F7)


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_poly("x0", QQ)
    with pytest.raises(UnknownVariable):
        parse_poly("x1000", QQ)
    with pytest.raises(UnknownVariable):
        parse_poly("x" + "9" * 5000, QQ)


def test_oversized_input_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_poly("9" * 5000 + "*x1", QQ)
    with pytest.raises(ParseError):
        parse_poly("x1^" + "9" * 5000, QQ)
    with pytest.raises(ParseError):
        parse_poly("(" * 5000 + "x1" + ")" * 5000, QQ)


def test_degree_cap_refuses_before_multiplying(monkeypatch):
    # every product the parser forms stays within the cap
    degrees = []
    mul = NCPoly.__mul__

    def recording_mul(f, g):
        out = mul(f, g)
        degrees.append(max(map(len, out.terms), default=0))
        return out

    monkeypatch.setattr(NCPoly, "__mul__", recording_mul)
    for text in (
        "(x1+x2)^40",
        "x1^99999999",
        "x1*x2*x3*x4*x5*x6*x7*x8*x9",
        "[x1^5,x2^4]",
        "x1^4*(x2 + x3)^5",
        "x1 + x2^3*[x1,x2]^3",
    ):
        with pytest.raises(ResourceLimit):
            parse_poly(text, QQ, max_degree=8)
    assert max(degrees) <= 8
    with pytest.raises(ResourceLimit):
        parse_poly("x1", QQ, max_degree=0)
    # at the cap the result is the uncapped one
    for text in ("(x1+x2)^8", "[x1^4,x2^4]", "x1^2*(x2 + x3)^3*x1^3", "2^100*x1^8"):
        assert parse_poly(text, QQ, max_degree=8) == parse_poly(text, QQ)


def test_term_count_is_capped_before_multiplying(monkeypatch):
    # under a degree cap no product bounded above the term limit is formed
    from weylpi import parser

    monkeypatch.setattr(parser, "_MAX_PRODUCT_TERMS", 100)
    sizes = []
    mul = NCPoly.__mul__

    def recording_mul(f, g):
        sizes.append(len(f.terms) * len(g.terms))
        return mul(f, g)

    monkeypatch.setattr(NCPoly, "__mul__", recording_mul)
    ten = "(" + "+".join(f"x{k}" for k in range(1, 11)) + ")"
    for text in ("(x1+x2+x3)^5", f"{ten}*{ten}*(x1+x2)", f"[{ten}*{ten},x1+x2]"):
        with pytest.raises(ResourceLimit):
            parse_poly(text, QQ, max_degree=8)
    assert max(sizes) <= 100
    for text in ("(x1+x2+x3)^4", f"{ten}*{ten}*x1", "(x1+x2)^5*(x1+x2)"):
        assert parse_poly(text, QQ, max_degree=8) == parse_poly(text, QQ)
    # without a cap nothing is refused
    assert len(parse_poly("(x1+x2+x3)^5", QQ).terms) == 243


@pytest.mark.parametrize("field", [QQ, F7])
def test_sum_equals_its_terms_added_one_by_one(field):
    # repeated terms, terms that cancel and come back, and a cancelled
    # term with the most variables
    pieces = [
        ("-", "x2*x1"), ("+", "3*x1*x2"), ("+", "x2*x1"), ("-", "1/2*x3*x1"),
        ("-", "3*x1*x2"), ("+", "x1*x5*x1"), ("+", "[x1,x2]"), ("+", "3*x1*x2"),
        ("-", "x1*x5*x1"), ("+", "2"), ("-", "2"), ("+", "x2*x1"),
    ]
    f = parse_poly(" ".join(f"{sign} {text}" for sign, text in pieces), field)
    expected = NCPoly.zero(field)
    for sign, text in pieces:
        g = parse_poly(text, field)
        expected = expected - g if sign == "-" else expected + g
    assert list(f.terms.items()) == list(expected.terms.items())
    assert f.nvars == expected.nvars == 5


def test_constant_powers():
    assert parse_poly("2^10", QQ) == parse_poly("1024", QQ)
    assert parse_poly("(1/2)^3*x1", QQ) == parse_poly("1/8*x1", QQ)
    assert parse_poly("3^5", F7) == parse_poly("3*3*3*3*3", F7)
    assert parse_poly("0^0", QQ) == parse_poly("1", QQ)
    assert parse_poly("(x1-x1)^99999999", QQ).is_zero()
    assert parse_poly("(-1)^99999999 + 1^99999999", QQ).is_zero()
    assert parse_poly("5^99999999", F7) == parse_poly(str(pow(5, 99999999, 7)), F7)
    with pytest.raises(ResourceLimit):
        parse_poly("3^99999999", QQ)


def _random_poly(rng, field):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        w = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        if field.p == 0:
            c = field.of(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = field.of(rng.randint(0, field.p - 1))
        terms[w] = c
    return NCPoly(field, 4, terms)


@pytest.mark.parametrize("field", [QQ, F7])
def test_round_trip_randomized(field):
    rng = random.Random(2024)
    for _ in range(200):
        f = _random_poly(rng, field)
        assert parse_poly(format_poly(f), field) == f
