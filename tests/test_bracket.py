import random
from itertools import combinations, product
from math import comb

import pytest

from weylpi.bracket import (
    BracketMonomial,
    Status,
    enumerate_completely_reduced,
)
from weylpi.fields import Field
from weylpi.free_algebra import mdeg_word
from weylpi.parser import parse_poly

QQ = Field.rationals()


def bm(prefix, brackets):
    return BracketMonomial(tuple(prefix), tuple(brackets))


def test_construction_validates_brackets():
    with pytest.raises(ValueError):
        bm((), ())
    with pytest.raises(ValueError):
        bm((), ((2, 2),))
    with pytest.raises(ValueError):
        bm((), ((3, 2),))
    with pytest.raises(ValueError):
        bm((0,), ((1, 2),))
    with pytest.raises(ValueError):
        bm((), ((0, 1),))
    # lists are taken as tuples, in the order given
    mono = BracketMonomial([2, 1], [[1, 2]])
    assert mono == ((2, 1), ((1, 2),)) and repr(mono) == "BracketMonomial(x2 x1 [x1,x2])"


def test_expand_examples():
    f = bm((), ((1, 2), (3, 4))).expand(QQ)
    assert f == parse_poly("[x1,x2]*[x3,x4]", QQ)
    g = bm((1,), ((2, 3),)).expand(QQ)
    assert g == parse_poly("x1*x2*x3 - x1*x3*x2", QQ)
    assert bm((1,), ((2, 3),)).mdeg() == (1, 1, 1)
    assert len(bm((3,), ((1, 2),)).expand(QQ).terms) == 2


def test_status_paper_examples():
    assert bm((3,), ((1, 2),)).status() == Status.SEMI_REDUCED
    assert bm((), ((2, 3), (1, 4))).status() == Status.REDUCED
    assert bm((1,), ((2, 3),)).status() == Status.COMPLETELY_REDUCED
    assert bm((2, 1), ((1, 2),)).status() == Status.NONE  # unsorted prefix
    assert bm((), ((1, 4), (2, 3))).status() == Status.NONE  # s-sequence unsorted


def test_enumeration_matches_example_lists():
    assert [m.format() for m in enumerate_completely_reduced((1, 1))] == ["[x1,x2]"]
    assert [m.format() for m in enumerate_completely_reduced((1, 1, 1))] == [
        "x1 [x2,x3]",
        "x2 [x1,x3]",
    ]
    assert [m.format() for m in enumerate_completely_reduced((1, 1, 1, 1))] == [
        "x1 x2 [x3,x4]",
        "x1 x3 [x2,x4]",
        "x2 x3 [x1,x4]",
        "[x1,x2] [x3,x4]",
        "[x1,x3] [x2,x4]",
    ]
    assert [m.format() for m in enumerate_completely_reduced((1, 1, 1, 1, 1))] == [
        "x1 x2 x3 [x4,x5]",
        "x1 x2 x4 [x3,x5]",
        "x1 x3 x4 [x2,x5]",
        "x2 x3 x4 [x1,x5]",
        "x1 [x2,x3] [x4,x5]",
        "x1 [x2,x4] [x3,x5]",
        "x2 [x1,x3] [x4,x5]",
        "x2 [x1,x4] [x3,x5]",
        "x3 [x1,x4] [x2,x5]",
    ]
    # with the pure word, 1^d has the ballot count C(d, d//2) of r-multisets
    # (3431 keys for 1^14)
    for d in range(1, 15):
        assert len(enumerate_completely_reduced((1,) * d)) == comb(d, d // 2) - 1


def test_enumeration_two_variable_case():
    for r in range(1, 5):
        for s in range(1, r + 1):
            monos = enumerate_completely_reduced((r, s))
            expected = [
                bm((1,) * (r - i) + (2,) * (s - i), ((1, 2),) * i)
                for i in range(1, s + 1)
            ]
            assert sorted(monos, key=lambda m: len(m.brackets)) == expected
    for r in range(1, 24):
        for s in range(1, min(r, 24 - r) + 1):
            assert len(enumerate_completely_reduced((r, s))) == s, (r, s)


def test_enumeration_single_variable_and_small_degree():
    assert enumerate_completely_reduced((3,)) == []
    assert enumerate_completely_reduced((1,)) == []
    assert enumerate_completely_reduced((0, 0)) == []


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def test_reduced_count_closed_form_on_every_partition_to_degree_12():
    # n_reduced + 1 = [t^(d//2)] prod_i (1 + t + ... + t^delta_i): the
    # number of sub-multisets of delta of size d//2
    deltas = [delta for d in range(1, 13) for delta in _partitions(d)]
    assert len(deltas) == 271
    for delta in deltas:
        series = [1]
        for part in delta:
            series = [
                sum(series[k - j] for j in range(part + 1) if 0 <= k - j < len(series))
                for k in range(len(series) + part)
            ]
        d = sum(delta)
        assert len(enumerate_completely_reduced(delta)) + 1 == series[d // 2], delta


def _brute_force_completely_reduced(delta):
    """Independent oracle: pair up letters in every possible way, then filter."""
    letters = mdeg_word(delta)
    found = set()

    def rec(remaining, brackets):
        if brackets:
            prefix = tuple(sorted(remaining))
            canon = tuple(sorted(brackets, key=lambda rs: rs[::-1]))
            mono = BracketMonomial(prefix, canon)
            if mono.status() == Status.COMPLETELY_REDUCED:
                found.add(mono)
        for a, b in combinations(range(len(remaining)), 2):
            r, s = remaining[a], remaining[b]
            if r == s:
                continue
            rest = [x for i, x in enumerate(remaining) if i not in (a, b)]
            rec(rest, brackets + [(min(r, s), max(r, s))])

    rec(letters, [])
    return found


@pytest.mark.parametrize(
    "delta",
    [(1, 1, 1), (1, 1, 1, 1), (2, 1, 1), (2, 2), (2, 2, 1), (1, 1, 1, 1, 1), (3, 2, 1)],
)
def test_enumeration_complete_against_brute_force(delta):
    got = enumerate_completely_reduced(delta)
    assert len(set(got)) == len(got)
    assert set(got) == _brute_force_completely_reduced(delta)
    for mono in got:
        assert mono.status() == Status.COMPLETELY_REDUCED
        assert mono.mdeg(len(delta)) == delta


def _filtered_enumeration(delta):
    """Oracle: every s-sorted bracket multiset within the letter budget,
    built as a monomial with the rest of delta as its prefix, kept when
    ``status()`` says it is completely reduced."""
    letters = [l for l, d in enumerate(delta, start=1) if d]
    pairs = [(r, s) for s in letters for r in letters if r < s]
    remaining = dict(zip(letters, (d for d in delta if d)))
    out = []

    def rec(start, chosen):
        if chosen:
            prefix = tuple(l for l in letters for _ in range(remaining[l]))
            mono = BracketMonomial(prefix, tuple(chosen))
            if mono.status() == Status.COMPLETELY_REDUCED:
                out.append((mono.prefix, mono.brackets))
        for idx in range(start, len(pairs)):
            r, s = pairs[idx]
            if remaining[r] and remaining[s]:
                remaining[r] -= 1
                remaining[s] -= 1
                rec(idx, chosen + [(r, s)])
                remaining[r] += 1
                remaining[s] += 1

    rec(0, [])
    out.sort(key=lambda key: (len(key[1]), key[0], key[1]))
    return out


def test_pruned_generation_equals_filtered_enumeration():
    # every multidegree of 1-5 entries in 0..4 with total <= 8, zeros and
    # unsorted ones included; order matters, the certificate's blocks and
    # the CLI output follow it
    deltas = [
        delta
        for m in range(1, 6)
        for delta in product(range(5), repeat=m)
        if sum(delta) <= 8
    ]
    assert len(deltas) == 1497
    for delta in deltas:
        monos = enumerate_completely_reduced(delta)
        assert monos == _filtered_enumeration(delta), delta
        for mono in monos:
            # one value: the monomial is its (prefix, brackets) key
            key = (mono.prefix, mono.brackets)
            assert type(mono) is BracketMonomial and mono == key and hash(mono) == hash(key)


def _random_monomial(rng, max_vars=6, max_brackets=3):
    k = rng.randint(1, max_brackets)
    brackets = []
    for _ in range(k):
        r = rng.randint(1, max_vars - 1)
        s = rng.randint(r + 1, max_vars)
        brackets.append((r, s))
    l = rng.randint(0, 7 - 2 * k)
    prefix = tuple(rng.randint(1, max_vars) for _ in range(l))
    return BracketMonomial(prefix, tuple(brackets))


def test_expansion_shape_and_uniqueness():
    rng = random.Random(99)
    for _ in range(300):
        a = _random_monomial(rng)
        b = _random_monomial(rng)
        ea = a.expand(QQ)
        assert len(ea.terms) == 2 ** len(a.brackets)
        assert all(c in (QQ.of(1), QQ.of(-1)) for c in ea.terms.values())
        assert ea.mdeg() == a.mdeg(nvars=len(ea.mdeg()))
        if a != b:
            assert ea != b.expand(QQ)
