import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpi.errors import ParseError, ResourceLimit, UnknownVariable
from weylpi.fields import Field
from weylpi.free_algebra import NCPoly, commutator, st3
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


# bad variable tokens and their neighbours: the exception and its position
_TOKEN_ERRORS = [
    ("x0", UnknownVariable, 0),
    ("x00", UnknownVariable, 0),
    ("x1000", UnknownVariable, 0),
    ("x0001000", UnknownVariable, 0),
    ("x" + "9" * 5000, UnknownVariable, 0),
    ("x", ParseError, 0),
    ("x\u0663", ParseError, 0),  # an Arabic-Indic digit three
    ("x1*x\u00b2", ParseError, 3),
    ("x1 + @", ParseError, 5),
    ("x1*x0", UnknownVariable, 3),
    ("x01*x1000", UnknownVariable, 4),
    ("x1*x2^x0", ParseError, 6),
    ("x1x2", ParseError, 2),
    ("(x1+x2)*x3*x0", UnknownVariable, 11),
    ("(x1+x2)*x1^2*x1000", UnknownVariable, 13),
]


@pytest.mark.parametrize("text, exc, pos", _TOKEN_ERRORS)
def test_bad_variable_tokens_raise_at_their_position(text, exc, pos):
    # the second read finds the good spellings of the text already known
    for _ in range(2):
        for max_degree in (None, 8):
            with pytest.raises(ParseError) as ei:
                parse_poly(text, QQ, max_degree=max_degree)
            assert type(ei.value) is exc
            assert ei.value.pos == pos


def test_zero_padded_variables_parse_as_their_index():
    for _ in range(2):
        assert parse_poly("x01", QQ) == parse_poly("x1", QQ)
        assert parse_poly("x0009", QQ).terms == {(9,): QQ.one}
        assert parse_poly("x0009", QQ).nvars == 9
        assert parse_poly("x01*x1*x001", F7) == parse_poly("x1^3", F7)


def test_capped_parse_refuses_bad_tokens_before_multiplying(monkeypatch):
    from weylpi import parser

    # every input but the sums times a monomial, which multiply first
    calls = []
    monkeypatch.setattr(parser, "_word_product", lambda *args: calls.append(args))
    for text, exc, pos in _TOKEN_ERRORS:
        if not text.startswith("("):
            with pytest.raises(ParseError) as ei:
                parse_poly(text, QQ, max_degree=8)
            assert (type(ei.value), ei.value.pos) == (exc, pos)
    assert calls == []


def test_powers_of_letters_are_capped_in_order():
    # the letter itself, then its power, then the word it extends
    for text, degree, cap in (
        ("x1^0", 1, 0), ("x1^x2", 1, 0), ("x1^9", 9, 8), ("x2*x1^8", 9, 8), ("0*x1^9", 9, 8)
    ):
        with pytest.raises(ResourceLimit, match=f"degree {degree} exceeds the cap of {cap}$"):
            parse_poly(text, QQ, max_degree=cap)
    f = parse_poly("x3^0*x2", QQ, max_degree=8)
    assert (f.terms, f.nvars) == ({(2,): QQ.one}, 3)


def test_product_of_a_sum_and_monomials_is_capped_as_each_product(monkeypatch):
    # a run of monomial factors after a sum is checked at each factor as
    # the product so far would be, by degree and then by term count
    from weylpi import parser

    monkeypatch.setattr(parser, "_MAX_PRODUCT_TERMS", 2)
    with pytest.raises(ResourceLimit, match="degree 9 exceeds"):
        parse_poly("(x1+x2+x3)*x1^8", QQ, max_degree=8)
    with pytest.raises(ResourceLimit, match="product of up to 3 terms"):
        parse_poly("(x1+x2+x3)*x1^7", QQ, max_degree=8)
    with pytest.raises(ResourceLimit, match="product of up to 3 terms"):
        parse_poly("(x1+x2+x3)*2", QQ, max_degree=8)
    # times zero nothing is counted, and the zero stays zero
    assert parse_poly("(x1+x2+x3)*0*x1^8", QQ, max_degree=8).is_zero()
    assert parse_poly("(x1+x2)*x3*x1", QQ, max_degree=8).terms == {
        (1, 3, 1): QQ.one, (2, 3, 1): QQ.one
    }


def test_oversized_input_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_poly("9" * 5000 + "*x1", QQ)
    with pytest.raises(ParseError):
        parse_poly("x1^" + "9" * 5000, QQ)
    with pytest.raises(ParseError):
        parse_poly("(" * 5000 + "x1" + ")" * 5000, QQ)


def test_degree_cap_refuses_before_multiplying(monkeypatch):
    # every product the parser forms stays within the cap
    from weylpi import parser

    degrees = []
    product = parser._word_product

    def recording_product(field, f, g):
        out = product(field, f, g)
        degrees.append(max(map(len, out), default=0))
        return out

    monkeypatch.setattr(parser, "_word_product", recording_product)
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
    product = parser._word_product

    def recording_product(field, f, g):
        sizes.append(len(f) * len(g))
        return product(field, f, g)

    monkeypatch.setattr(parser, "_word_product", recording_product)
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



def _field_format_word(word):
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        parts.append(f"x{word[i]}" + (f"^{run}" if run > 1 else ""))
        i = j
    return "*".join(parts)


def _field_format_poly(f):
    """The oracle: ``format_poly`` on field scalars, with ``Field.format``."""
    if f.is_zero():
        return "0"
    F = f.field
    pieces = []
    for w, c in f.sorted_terms():
        word_txt = _field_format_word(w)
        neg = F.p == 0 and c < 0
        mag = -c if neg else c
        if w and mag == F.one:
            txt = word_txt
        elif not w:
            txt = F.format(mag)
        else:
            txt = f"{F.format(mag)}*{word_txt}"
        if not pieces:
            pieces.append(("-" if neg else "") + txt)
        else:
            pieces.append(("- " if neg else "+ ") + txt)
    return " ".join(pieces)


_scalars = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-100000, 100000),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([QQ, Field.prime(2), Field.prime(3), Field.prime(32003)]),
    st.dictionaries(st.lists(st.integers(1, 4), max_size=5).map(tuple), _scalars, max_size=6),
)
def test_format_poly_matches_the_field_format_oracle(field, terms):
    if field.p:  # F_p takes integer scalars only
        terms = {w: c.numerator for w, c in terms.items() if c.denominator == 1}
    f = NCPoly(field, 4, {w: field.of(c) for w, c in terms.items()})
    assert format_poly(f) == _field_format_poly(f)
    assert repr(f) == f"NCPoly({_field_format_poly(f)})"

def _random_tree(rng, field, depth):
    """A random expression as (kind, text, the NCPoly built by NCPoly
    arithmetic); an operand is parenthesized unless it is a single factor."""
    inner = ("sum", "sum", "prod", "prod", "pow", "comm", "paren") * 2
    kind = rng.choice(("num", "var") + inner * (depth > 0))
    if kind == "num":
        a, b = rng.randint(0, 9), rng.choice((None, 1, 2, 3, 6))
        text = str(a) if b is None else f"{a}/{b}"
        return kind, text, NCPoly(field, 0, {(): field.of(a, b or 1)})
    if kind == "var":
        i = rng.randint(1, 5)
        return kind, f"x{i}", NCPoly.variable(i, field)
    if kind == "pow":
        t, g = _operand(rng, field, min(depth - 1, 1))
        n = rng.randint(0, 3)
        return kind, f"{t}^{n}", g**n
    if kind == "comm":
        _, s, f = _random_tree(rng, field, depth - 1)
        _, t, g = _random_tree(rng, field, depth - 1)
        return kind, f"[{s}, {t}]", commutator(f, g)
    if kind == "paren":
        _, t, f = _random_tree(rng, field, depth - 1)
        return kind, f"({t})", f
    if kind == "prod":
        children = [_operand(rng, field, depth - 1) for _ in range(rng.randint(2, 3))]
        f = children[0][1]
        for _, g in children[1:]:
            f = f * g
        return kind, "*".join(t for t, _ in children), f
    # a sum, maybe with a leading sign and a term that cancels an earlier one
    children = [_random_tree(rng, field, depth - 1) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        children.append(rng.choice(children))
    text, f = "", NCPoly.zero(field)
    for k, (child_kind, t, g) in enumerate(children):
        sign = rng.choice(("+", "-", "")) if k == 0 else rng.choice("+-")
        text += f" {sign} " if sign else ""
        text += f"({t})" if child_kind == "sum" else t
        f = f - g if sign == "-" else f + g
    return kind, text, f


def _operand(rng, field, depth):
    # the text of an operand of * or ^, and its NCPoly
    kind, text, f = _random_tree(rng, field, depth)
    return (f"({text})" if kind in ("sum", "prod", "pow") else text), f


def _flat_factor(rng, field):
    """A factor of an unparenthesized product, as (text, NCPoly): a literal,
    a letter, a power of either, a letter commutator or a parenthesized sum
    of one word or of several."""
    x = lambda i: NCPoly.variable(i, field)
    const = lambda a, b=1: NCPoly(field, 0, {(): field.of(a, b)})
    i, n = rng.randint(1, 5), rng.randint(0, 3)
    j = rng.choice((i, rng.randint(1, 5)))
    kind = rng.choice(("int", "frac", "var", "var", "varpow", "intpow", "comm", "sum"))
    if kind == "int":
        a = rng.choice((0, 1, 1, 2, 3, 7, 10))
        return str(a), const(a)
    if kind == "frac":
        a, b = rng.randint(0, 9), rng.choice((1, 2, 3, 6))
        return f"{a}/{b}", const(a, b)
    if kind == "var":
        return f"x{i}", x(i)
    if kind == "varpow":
        return f"x{i}^{n}", x(i) ** n
    if kind == "intpow":
        a = rng.choice((0, 1, 2, 3))
        return f"{a}^{n}", const(a) ** n
    if kind == "comm":
        return f"[x{i},x{j}]", commutator(x(i), x(j))
    # words from a small set, so that a sum may collapse to one word or none
    text, f = "", NCPoly.zero(field)
    for k in range(rng.randint(1, 3)):
        sign, a = rng.choice("+-"), rng.randint(1, 3)
        word = rng.choice(((), (1,), (2,), (1, 2), (3, 1)))
        text += f" {sign} {a}" + "".join(f"*x{v}" for v in word)
        g = NCPoly.monomial(word, field, field.of(a))
        f = f - g if sign == "-" else f + g
    return f"({text})", f


@pytest.mark.parametrize("field", [QQ, F7])
def test_parse_matches_ncpoly_arithmetic(field):
    # the parser's word-dict arithmetic gives the same terms, in the same
    # order, and the same nvars as the NCPoly operations
    f = parse_poly("(x1 + x2)*(x3 - x4) - [x2, x1]", field)
    words = [(1, 3), (1, 4), (2, 3), (2, 4), (2, 1), (1, 2)]
    assert list(f.terms) == words  # a product runs over f's words, then g's
    rng = random.Random(14)
    scalar = Fraction if field is QQ else int
    for _ in range(400):
        _, text, expected = _random_tree(rng, field, 4)
        f = parse_poly(text, field)
        assert list(f.terms.items()) == list(expected.terms.items()), text
        assert f.nvars == expected.nvars, text
        # the parser computes over Q on ints, but lifts what it returns
        assert all(type(c) is scalar for c in f.terms.values()), text
    # unparenthesized runs of factors, which a term folds into one monomial
    # until a factor of two or more words comes
    for _ in range(400):
        factors = [_flat_factor(rng, field) for _ in range(rng.randint(2, 9))]
        text = "*".join(t for t, _ in factors)
        expected = factors[0][1]
        for _, g in factors[1:]:
            expected = expected * g
        f = parse_poly(text, field)
        assert list(f.terms.items()) == list(expected.terms.items()), text
        assert f.nvars == expected.nvars, text
        assert all(type(c) is scalar for c in f.terms.values()), text
    f = parse_poly("3*x1*x2^2 + 1/2*x2", field)
    assert f.terms == {(1, 2, 2): field.of(3), (2,): field.of(1, 2)}
    assert all(type(c) is scalar for c in f.terms.values())
