import random
import re

import pytest

from weylpi.bracket import (
    BracketMonomial,
    Status,
    _first_descent,
    _first_nested,
    format_key,
)
from weylpi import cli, rewriter
from weylpi.errors import NotMultihomogeneous, ResourceLimit
from weylpi.evaluation import generic_substitution, substitute_tuple
from weylpi.fields import Field
from weylpi.free_algebra import NCPoly, gamma, mdeg_word, st3, t4
from weylpi.parser import parse_poly
from weylpi.rewriter import normal_form, semi_reduce

QQ = Field.rationals()
F7 = Field.prime(7)
FIELDS = [QQ, Field.prime(2), Field.prime(3), Field.prime(32003)]


def bm(prefix, brackets):
    return BracketMonomial(tuple(prefix), tuple(brackets))


def test_semi_reduce_swap_example():
    beta, terms = semi_reduce(parse_poly("x2*x1", QQ))
    assert beta == QQ.of(1)
    assert terms == {bm((), ((1, 2),)): QQ.of(-1)}


def test_semi_reduce_moves_brackets_right():
    beta, terms = semi_reduce(parse_poly("[x1,x2]*x3", QQ))
    assert beta == QQ.of(0)
    assert terms == {bm((3,), ((1, 2),)): QQ.of(1)}


def test_semi_reduce_fixed_point():
    f = bm((1, 2), ((1, 3),)).expand(QQ)
    beta, terms = semi_reduce(f)
    assert beta == QQ.of(0)
    assert terms == {bm((1, 2), ((1, 3),)): QQ.of(1)}
    assert all(m.status() >= Status.SEMI_REDUCED for m in terms)


def test_semi_reduce_requires_multihomogeneous():
    with pytest.raises(NotMultihomogeneous):
        semi_reduce(parse_poly("x1 + x1^2", QQ))


def _monomial_normal_form(mono):
    # the normal form of one bracket-monomial: its beta is 0, as no rule
    # removes a bracket
    (nf,) = normal_form(mono.expand(QQ)).values()
    assert QQ.is_zero(nf.beta)
    return nf.terms


def test_reduce_rule_example():
    # pull-in: x3[x1,x2] -> x2[x1,x3] - x1[x2,x3]
    assert _monomial_normal_form(bm((3,), ((1, 2),))) == {
        bm((2,), ((1, 3),)): QQ.of(1),
        bm((1,), ((2, 3),)): QQ.of(-1),
    }
    already = bm((1,), ((2, 3),))
    assert _monomial_normal_form(already) == {already: QQ.of(1)}
    no_prefix = bm((), ((1, 3), (2, 4)))
    assert _monomial_normal_form(no_prefix) == {no_prefix: QQ.of(1)}


def test_completely_reduce_t4_example():
    # unnest: [x2,x3][x1,x4] -> [x1,x3][x2,x4] - [x1,x2][x3,x4]
    assert _monomial_normal_form(bm((), ((2, 3), (1, 4)))) == {
        bm((), ((1, 2), (3, 4))): QQ.of(-1),
        bm((), ((1, 3), (2, 4))): QQ.of(1),
    }
    fixed = bm((), ((1, 2), (3, 4)))
    assert _monomial_normal_form(fixed) == {fixed: QQ.of(1)}
    listed = bm((3,), ((1, 4), (2, 5)))
    assert _monomial_normal_form(listed) == {listed: QQ.of(1)}


def test_normal_form_of_generators_is_zero():
    for f in (gamma(3, QQ), st3(QQ), gamma(5, QQ)):
        forms = normal_form(f)
        assert all(nf.is_zero() for nf in forms.values())
    assert normal_form(t4(QQ))[(1, 1, 1, 1)].is_zero()


def test_normal_form_of_pure_power():
    forms = normal_form(parse_poly("x1^4", QQ))
    nf = forms[(4,)]
    assert nf.beta == QQ.of(1) and not nf.terms


def test_normal_form_of_zero_is_empty():
    assert normal_form(NCPoly.zero(QQ)) == {}
    assert semi_reduce(NCPoly.zero(QQ)) == (QQ.zero, {})


def test_normal_form_repr():
    assert repr(normal_form(parse_poly("x2*x1", QQ))[(1, 1)]) == (
        "NormalForm(field=Q, mdeg=(1, 1), beta=Fraction(1, 1), "
        "terms={BracketMonomial([x1,x2]): Fraction(-1, 1)})"
    )


def test_normal_form_fields_can_be_assigned():
    a, b = (normal_form(parse_poly("x2*x1", QQ))[(1, 1)] for _ in range(2))
    assert a == b and a is not b
    b.beta += 1
    assert a != b and b.beta == QQ.of(2)


def test_normal_form_statuses_and_mdeg():
    rng = random.Random(8)
    for _ in range(40):
        f = _random_multihomogeneous(rng, QQ)
        for delta, nf in normal_form(f).items():
            assert nf.mdeg == delta
            for mono in nf.terms:
                assert type(mono) is BracketMonomial
                assert mono.status() == Status.COMPLETELY_REDUCED
                assert mono.mdeg(len(delta)) == delta


def _random_multihomogeneous(rng, field, max_deg=5, max_vars=4):
    nvars = rng.randint(1, max_vars)
    deg = rng.randint(1, max_deg)
    letters = tuple(rng.randint(1, nvars) for _ in range(deg))
    words = set()
    perm = list(letters)
    for _ in range(rng.randint(1, 4)):
        rng.shuffle(perm)
        words.add(tuple(perm))
    terms = {}
    for w in words:
        c = field.of(rng.randint(-5, 5))
        if not field.is_zero(c):
            terms[w] = c
    return NCPoly(field, nvars, terms)


@pytest.mark.parametrize("field", [QQ, F7])
def test_normal_form_soundness_random(field):
    # evaluation is invariant under rewriting (output = input mod the ideal,
    # and the ideal evaluates to zero)
    rng = random.Random(1234)
    for _ in range(60):
        f = _random_multihomogeneous(rng, field)
        forms = normal_form(f)
        recon = NCPoly.zero(field, f.nvars)
        for nf in forms.values():
            recon = recon + nf.to_poly()
        assert generic_substitution(f) == generic_substitution(recon)


def test_beta_matches_equal_argument_evaluation():
    rng = random.Random(77)
    for _ in range(40):
        f = _random_multihomogeneous(rng, QQ)
        if f.is_zero():
            continue
        delta = f.mdeg()
        beta, _ = semi_reduce(f)
        w = substitute_tuple(f, ("x",) * f.nvars)
        total = sum(delta)
        assert beta == w.terms.get((total, 0, ()), QQ.zero)


def _monomial_weight(mono):
    # the prefix letters in decreasing order, padded with zeros to the
    # degree; weights compare lexicographically
    w = sorted(mono.prefix, reverse=True)
    return w + [0] * (len(mono.letters()) - len(w))


def test_bracket_monomial_inputs_keep_beta_zero_and_weights_bounded():
    rng = random.Random(31)
    for _ in range(60):
        k = rng.randint(1, 2)
        brackets = []
        for _ in range(k):
            r = rng.randint(1, 4)
            s = rng.randint(r + 1, 5)
            brackets.append((r, s))
        prefix = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
        mono = BracketMonomial(prefix, tuple(brackets))
        beta, semis = semi_reduce(mono.expand(QQ))
        assert beta == QQ.of(0)
        mw = _monomial_weight(mono)
        for out_mono in semis:
            assert _monomial_weight(out_mono) <= mw
        # full reduction also keeps the monomial-weight bound
        for delta, nf in normal_form(mono.expand(QQ)).items():
            assert QQ.is_zero(nf.beta)
            for out_mono in nf.terms:
                assert _monomial_weight(out_mono) <= mw


def test_identity_members_have_zero_beta():
    for f in (st3(QQ), gamma(4, QQ), parse_poly("[[x1,x2],x1*x3]", QQ)):
        for nf in normal_form(f).values():
            assert QQ.is_zero(nf.beta)


def test_idempotent_on_reconstructed_output():
    rng = random.Random(55)
    for _ in range(30):
        f = _random_multihomogeneous(rng, QQ, max_deg=4, max_vars=3)
        forms = normal_form(f)
        for delta, nf in forms.items():
            again = normal_form(nf.to_poly())
            nf2 = again.get(delta)
            if nf2 is None:
                assert nf.is_zero()
            else:
                assert nf2.beta == nf.beta
                assert nf2.terms == nf.terms


def test_trace_records_rules():
    trace = []
    normal_form(parse_poly("x3*[x1,x2]", QQ), trace=trace)
    assert any("pull-in:" in line for line in trace)
    trace = []
    normal_form(parse_poly("x2*x1", QQ), trace=trace)
    assert any("swap:" in line for line in trace)
    trace = []
    normal_form(bm((), ((2, 3), (1, 4))).expand(QQ), trace=trace)
    assert any("unnest:" in line for line in trace)


def test_step_cap_raises_resource_limit(monkeypatch, capsys):
    monkeypatch.setattr(rewriter, "_MAX_STEPS", 5)
    with pytest.raises(ResourceLimit):
        normal_form(parse_poly("x3*x2*x1*x4", QQ))
    assert cli.main(["normalize", "--expr", "x3*x2*x1*x4"]) == 3
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("text, passes", [("x3*x2*x1*x4", 14), ("x4*x3*x2*x1", 18)])
def test_step_cap_counts_distinct_keys_expanded(monkeypatch, text, passes):
    # the cap counts every distinct key popped with a nonzero merged
    # coefficient, terminal ones too
    f = parse_poly(text, QQ)
    monkeypatch.setattr(rewriter, "_MAX_STEPS", passes)
    normal_form(f)
    monkeypatch.setattr(rewriter, "_MAX_STEPS", passes - 1)
    with pytest.raises(ResourceLimit):
        normal_form(f)


# The full trace and the terms in insertion order: `normalize --trace`
# prints this trace, and the benchmark's rewrite-step count reads its length.
# Both follow the pop order, decreasing (len(prefix), prefix, brackets); a
# term whose merged coefficient cancels (in x4*x3*x2*x1, x2 x1 [x3,x4] and
# x3 x1 [x2,x4]) is dropped without a line.
PINNED = {
    "x4*x3*x2*x1": (
        [
            "swap: x4 x3 in x4 x3 x2 x1",
            "swap: x4 x2 in x3 x4 x2 x1",
            "swap: x3 x2 in x3 x2 x4 x1",
            "swap: x4 x1 in x2 x3 x4 x1",
            "swap: x3 x1 in x2 x3 x1 x4",
            "swap: x2 x1 in x2 x1 x3 x4",
            "swap: x4 x1 in x4 x1 [x2,x3]",
            "pull-in: pull x4 into [x1,x2] in x3 x4 [x1,x2]",
            "swap: x3 x2 in x3 x2 [x1,x4]",
            "pull-in: pull x4 into [x1,x3] in x2 x4 [x1,x3]",
            "pull-in: pull x4 into [x2,x3] in x1 x4 [x2,x3]",
            "unnest: [x2,x3][x1,x4] in [x2,x3] [x1,x4]",
        ],
        1,
        [
            (((2, 3), ((1, 4),)), -3),
            (((1, 3), ((2, 4),)), -1),
            (((1, 2), ((3, 4),)), 1),
            (((), ((1, 3), (2, 4))), 2),
            (((), ((1, 2), (3, 4))), -2),
        ],
    ),
    "x3*[x1,x2]*x5*x4": (
        [
            "swap: x3 x2 in x3 x2 x1 x5 x4",
            "swap: x3 x1 in x3 x1 x2 x5 x4",
            "swap: x3 x1 in x2 x3 x1 x5 x4",
            "swap: x2 x1 in x2 x1 x3 x5 x4",
            "swap: x3 x2 in x1 x3 x2 x5 x4",
            "swap: x5 x4 in x3 x5 x4 [x1,x2]",
            "pull-in: pull x5 into [x1,x2] in x3 x4 x5 [x1,x2]",
            "swap: x4 x2 in x3 x4 x2 [x1,x5]",
            "swap: x4 x1 in x3 x4 x1 [x2,x5]",
            "swap: x3 x2 in x3 x2 x4 [x1,x5]",
            "swap: x3 x1 in x3 x1 x4 [x2,x5]",
            "pull-in: pull x4 into [x2,x3] in x4 [x2,x3] [x1,x5]",
            "pull-in: pull x4 into [x1,x3] in x4 [x1,x3] [x2,x5]",
            "unnest: [x2,x4][x1,x5] in x3 [x2,x4] [x1,x5]",
            "pull-in: pull x3 into [x1,x2] in x3 [x1,x2] [x4,x5]",
            "unnest: [x3,x4][x1,x5] in x2 [x3,x4] [x1,x5]",
            "unnest: [x3,x4][x2,x5] in x1 [x3,x4] [x2,x5]",
        ],
        0,
        [
            (((2, 3, 4), ((1, 5),)), 1),
            (((1, 3, 4), ((2, 5),)), -1),
            (((2,), ((1, 4), (3, 5))), 1),
            (((1,), ((2, 4), (3, 5))), -1),
        ],
    ),
}


@pytest.mark.parametrize("text", sorted(PINNED))
def test_trace_and_term_order_are_pinned(text):
    lines, beta, terms = PINNED[text]
    trace = []
    (nf,) = normal_form(parse_poly(text, QQ), trace=trace).values()
    assert trace == lines
    assert nf.beta == QQ.of(beta)
    assert list(nf.terms.items()) == [(bm(*key), QQ.of(c)) for key, c in terms]


@pytest.mark.parametrize(
    "text, lines",
    [
        ("x3*x2*x1*x4", 10),
        ("x4*x3*x2*x1", 12),  # 17 firings along separate paths on 14 terms, 2 cancel
        ("x3*x2*x1*x4 + x2*x3*x1*x4", 10),  # the second word's rewrites are shared
    ],
)
def test_trace_lists_each_distinct_rewrite_once(text, lines):
    trace = []
    normal_form(parse_poly(text, QQ), trace=trace)
    assert len(trace) == len(set(trace)) == lines
    for rule in ("swap:", "pull-in:", "unnest:"):
        assert any(line.startswith(rule) for line in trace)


_RULES = {
    Status.NONE: {"swap"},
    Status.SEMI_REDUCED: {"swap"},
    Status.REDUCED: {"swap", "pull-in"},
    Status.COMPLETELY_REDUCED: {"swap", "pull-in", "unnest"},
}


@pytest.mark.parametrize("target", list(Status), ids=lambda t: t.name)
def test_successors_are_smaller_in_the_rewrite_order(target):
    # the single ordered pass of _rewrite pops terms in decreasing
    # (len(prefix), prefix, bracket codes) order, so every child must come
    # after its parent; a key is the flat tuple prefix + sorted codes, each
    # bracket [x_r, x_s] coded as s << width | r
    width = 3  # the bit length of the largest letter, 6
    rng = random.Random(41 + target)
    trace = []
    for _ in range(600):
        prefix = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 5)))
        pairs = [sorted(rng.sample(range(1, 7), 2)) for _ in range(rng.randint(0, 3))]
        key = prefix + tuple(sorted(s << width | r for r, s in pairs))
        n = len(prefix)
        children = rewriter._successors(key, n, width, target, trace)
        if children:
            first, second, _, m = children
            for child, size in ((first, n), (second, m)):
                assert (size, child) < (n, key)
                assert list(child[size:]) == sorted(child[size:])
    assert {line.split(":")[0] for line in trace} == _RULES[target]


# -- differential test against the path-by-path worklist ----------------------
#
# The oracle is the rewriter as it was before paths were merged: every path
# through the rewrite tree is followed on its own, in field arithmetic.  It
# sums the path coefficients of each term a rule fires on, so the expected
# trace holds the lines of the terms whose sum is nonzero, in decreasing
# (len(prefix), prefix, brackets) order, brackets as sorted (s, r) pairs.


def _fire(fired, F, prefix, brackets, line, c):
    """Add one path's coefficient into the term a rule fires on."""
    if fired is not None:
        key = len(prefix), prefix, tuple((s, r) for r, s in brackets)
        fired[key] = line, F.add(fired.get(key, (line, F.zero))[1], c)


def _fired_lines(fired, F):
    return [line for _, (line, c) in sorted(fired.items(), reverse=True) if not F.is_zero(c)]


def _path_rewrite(initial, F, target, fired=None):
    beta = F.zero
    out = {}
    stack = list(initial)
    while stack:
        (prefix, brackets), c = stack.pop()
        brackets = tuple(sorted(brackets, key=lambda rs: rs[::-1]))
        i = _first_descent(prefix)
        if i is not None:
            a, b = prefix[i], prefix[i + 1]
            line = f"swap: x{a} x{b} in {format_key(prefix, brackets)}"
            _fire(fired, F, prefix, brackets, line, c)
            stack.append(((prefix[:i] + (b, a) + prefix[i + 2 :], brackets), c))
            stack.append(((prefix[:i] + prefix[i + 2 :], brackets + ((b, a),)), F.neg(c)))
            continue
        if not brackets:
            beta = F.add(beta, c)
            continue
        if target >= Status.REDUCED and prefix and prefix[-1] > brackets[0][1]:
            t_l = prefix[-1]
            r1, s1 = brackets[0]
            line = f"pull-in: pull x{t_l} into [x{r1},x{s1}] in {format_key(prefix, brackets)}"
            _fire(fired, F, prefix, brackets, line, c)
            head, rest = prefix[:-1], brackets[1:]
            stack.append(((head + (s1,), ((r1, t_l),) + rest), c))
            stack.append(((head + (r1,), ((s1, t_l),) + rest), F.neg(c)))
            continue
        if target >= Status.COMPLETELY_REDUCED:
            nested = _first_nested(brackets)
            if nested is not None:
                u, v = nested
                a2, a3 = brackets[u]
                a1, a4 = brackets[v]
                line = f"unnest: [x{a2},x{a3}][x{a1},x{a4}] in {format_key(prefix, brackets)}"
                _fire(fired, F, prefix, brackets, line, c)
                rest = tuple(b for w, b in enumerate(brackets) if w not in (u, v))
                stack.append(((prefix, rest + ((a1, a2), (a3, a4))), F.neg(c)))
                stack.append(((prefix, rest + ((a1, a3), (a2, a4))), c))
                continue
        key = BracketMonomial(prefix, brackets)
        s = F.add(out.get(key, F.zero), c)
        if F.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s
    return beta, out


def _oracle_normal_form(f, trace=None):
    out = {}
    for delta, comp in f.multihomogeneous_components().items():
        initial = [((w, ()), c) for w, c in comp.terms.items()]
        fired = {}
        out[delta] = _path_rewrite(initial, f.field, Status.COMPLETELY_REDUCED, fired)
        if trace is not None:
            trace += _fired_lines(fired, f.field)
    return out


def _random_scalar(rng, F):
    """A nonzero scalar num/den with den from a mixed set of denominators."""
    while True:
        num = rng.choice([n for n in range(-12, 13) if n])
        den = rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 9, 10))
        if F.p and den % F.p == 0:
            continue
        c = F.of(num, den)
        if not F.is_zero(c):
            return c


def _random_input(rng, F):
    """One or two multihomogeneous parts of degree <= 6, mixed denominators."""
    f = NCPoly.zero(F)
    for _ in range(rng.randint(1, 2)):
        nvars = rng.randint(1, 4)
        letters = [rng.randint(1, nvars) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(1, 4)):
            rng.shuffle(letters)
            f = f + NCPoly.monomial(letters, F, coeff=_random_scalar(rng, F))
    return f


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_normal_form_matches_path_oracle(field):
    rng = random.Random(2024 + field.p)
    for _ in range(80):
        f = _random_input(rng, field)
        trace, oracle_trace = [], []
        forms = normal_form(f, trace=trace)
        expected = _oracle_normal_form(f, oracle_trace)
        assert set(forms) == set(expected)
        for delta, (beta, terms) in expected.items():
            assert forms[delta].beta == beta
            assert forms[delta].terms == terms
        assert trace == oracle_trace


_RENAME = {1: 3, 2: 700, 3: 1500, 4: 4000}  # letters above 1023 need 12-bit codes


def _relabel(mono):
    return BracketMonomial(
        tuple(_RENAME[t] for t in mono.prefix),
        tuple((_RENAME[r], _RENAME[s]) for r, s in mono.brackets),
    )


def _relabel_items(terms):
    return [(_relabel(mono), c) for mono, c in terms.items()]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rewriting_commutes_with_an_order_preserving_relabelling(field):
    # built as NCPolys, since the parser stops at x999
    def relabel_line(line):
        return re.sub(r"x(\d+)", lambda m: f"x{_RENAME[int(m.group(1))]}", line)

    rng = random.Random(4000 + field.p)
    for _ in range(25):
        f = _random_input(rng, field)
        trace, big_trace = [], []
        forms = normal_form(f, trace=trace)
        big = {
            tuple((l, d) for l, d in enumerate(delta, start=1) if d): nf
            for delta, nf in normal_form(f.rename(_RENAME), trace=big_trace).items()
        }
        assert big_trace == [relabel_line(line) for line in trace]
        assert len(big) == len(forms)
        for delta, nf in forms.items():
            got = big[tuple((_RENAME[l], d) for l, d in enumerate(delta, start=1) if d)]
            assert got.beta == nf.beta
            assert list(got.terms.items()) == _relabel_items(nf.terms)
        for comp in f.multihomogeneous_components().values():
            beta, semis = semi_reduce(comp)
            big_beta, big_semis = semi_reduce(comp.rename(_RENAME))
            assert big_beta == beta
            assert list(big_semis.items()) == _relabel_items(semis)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_cancelled_outputs_are_dropped(field):
    # subtract beta * (sorted word) and alpha * m for one output monomial m:
    # the merged integer coefficients of both are nonzero multiples of p
    # over F_p (or cancel over Q) and must not survive the conversion
    rng = random.Random(99 + field.p)
    cancelled = 0
    for _ in range(60):
        f = _random_input(rng, field)
        for delta, nf in normal_form(f).items():
            if not nf.terms:
                continue
            mono, alpha = rng.choice(sorted(nf.terms.items(), key=lambda it: it[0].prefix))
            word = mdeg_word(delta)
            g = (
                f
                - mono.expand(field).scale(alpha)
                - NCPoly.monomial(word, field, coeff=nf.beta)
            )
            got = normal_form(g).get(delta)
            beta, terms = _oracle_normal_form(g).get(delta, (field.zero, {}))
            assert field.is_zero(beta) and mono not in terms
            if got is None:
                assert not terms
            else:
                assert got.beta == beta and got.terms == terms
            cancelled += 1
    assert cancelled >= 20


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_partial_reductions_match_path_oracle(field):
    rng = random.Random(7 + field.p)
    for _ in range(30):
        f = _random_input(rng, field)
        for comp in f.multihomogeneous_components().values():
            initial = [((w, ()), c) for w, c in comp.terms.items()]
            beta, semis = semi_reduce(comp)
            assert (beta, semis) == _path_rewrite(initial, field, Status.SEMI_REDUCED)
            assert {type(m) for m in semis} <= {BracketMonomial}
