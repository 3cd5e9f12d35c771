import json
from itertools import combinations, product

import pytest

from weylpi.bracket import BracketMonomial, enumerate_completely_reduced
from weylpi.evaluation import (
    _integer_images,
    is_weak_identity,
    substitute_tuple,
)
from weylpi.fields import Field
from weylpi.free_algebra import (
    NCPoly,
    _multiset_permutations,
    commutator,
    gamma,
    generator_at,
    mdeg_word,
    st3,
    t4,
)
from weylpi.identities import (
    _GAMMA3,
    _ST3,
    _ideal_span_rows,
    degree_multidegrees,
    ideal_span_dimension,
    identity_basis,
    space_dimension,
    two_variable_certificate,
    verify_conjecture,
    words_of_multidegree,
)
from weylpi.linalg import row_reduce_sparse
from weylpi.rewriter import normal_form
from weylpi.weyl import WeylElement

QQ = Field.rationals()
F7 = Field.prime(7)


def test_words_and_dimension():
    assert words_of_multidegree((1, 1)) == [(1, 2), (2, 1)]
    assert space_dimension((1, 1, 1)) == 6
    assert space_dimension((2, 1)) == 3
    assert space_dimension((3,)) == 1
    assert space_dimension((1, 1, 1, 1, 1, 1)) == 720


def _word_rows(polys, delta, field):
    words = words_of_multidegree(delta)
    index = {w: i for i, w in enumerate(words)}
    return [{index[w]: c for w, c in f.terms.items()} for f in polys]


def _span_rank(polys, delta, field):
    rank, _ = row_reduce_sparse(_word_rows(polys, delta, field), field)
    return rank


def test_degree_three_multilinear_space():
    delta = (1, 1, 1)
    basis = identity_basis(delta, QQ)
    assert len(basis) == 3
    expected = [
        gamma(3, QQ),
        generator_at(gamma(3, QQ), (1, 3, 2)),
        st3(QQ),
    ]
    # same span: stacking the two families does not raise the rank
    assert _span_rank(expected, delta, QQ) == 3
    assert _span_rank(basis + expected, delta, QQ) == 3


def test_degree_three_other_multidegrees():
    basis21 = identity_basis((2, 1), QQ)
    assert len(basis21) == 1
    spanning = generator_at(gamma(3, QQ), (1, 2, 1))  # [[x1,x2],x1]
    spanning = NCPoly(QQ, 2, spanning.terms)
    assert _span_rank([spanning], (2, 1), QQ) == 1
    assert _span_rank(basis21 + [spanning], (2, 1), QQ) == 1
    assert identity_basis((3,), QQ) == []


def test_identity_basis_members_are_identities():
    for delta in [(1, 1, 1), (2, 1), (1, 1, 1, 1), (2, 2)]:
        for f in identity_basis(delta, QQ):
            assert is_weak_identity(f)
            assert f.mdeg() == delta


def test_identity_basis_rank_nullity():
    """The basis has len(words) - rank vectors in reduced echelon form over
    the lexicographic word order."""
    for field in (QQ, Field.prime(3), F7):
        for n in range(1, 6):
            for delta in degree_multidegrees(n):
                words = words_of_multidegree(delta)
                rows = _integer_images([{w: 1} for w in words])
                rank, _ = row_reduce_sparse(rows, field)
                basis = identity_basis(delta, field)
                assert len(basis) == len(words) - rank
                leads = [min(f.terms) for f in basis]
                assert leads == sorted(set(leads))
                for f, lead in zip(basis, leads):
                    assert f.terms[lead] == field.one
                    assert not any(w in f.terms for w in leads if w != lead)


def test_ideal_span_dimensions_degree_three():
    assert ideal_span_dimension((1, 1, 1), QQ) == 3
    assert ideal_span_dimension((2, 1), QQ) == 1
    assert ideal_span_dimension((1, 1), QQ) == 0
    assert ideal_span_dimension((3,), QQ) == 0


def test_ideal_contained_in_identities():
    for delta in [(1, 1, 1), (2, 1), (1, 1, 1, 1), (2, 2), (2, 1, 1)]:
        assert ideal_span_dimension(delta, QQ) <= len(identity_basis(delta, QQ))


def test_normal_form_kills_identity_basis():
    for delta in [(1, 1, 1), (2, 1), (2, 2), (1, 1, 1, 1)]:
        assert verify_conjecture(delta, QQ).verdict == "Verified"
        for f in identity_basis(delta, QQ):
            assert all(nf.is_zero() for nf in normal_form(f).values())


# -- the span rows against their products in the free algebra ----------------
#
# The oracle builds each row as it was built before rows were concatenated:
# the NCPoly product w1 * g(x_i1, ..., x_ia) * w2, for each generator g and
# each of its index tuples in ``spec``, nonzero and not seen before.


def _product_span_rows(delta, fieldobj, spec):
    m = len(delta)
    seen = set()
    rows = []
    for g, tuples in spec:
        for idxs in tuples:
            sub = generator_at(g, idxs)
            if sub.is_zero():
                continue
            sub = NCPoly(fieldobj, m, sub.terms)
            mu = sub.mdeg()
            if any(mu[i] > delta[i] for i in range(m)):
                continue
            rem = mdeg_word([d - u for d, u in zip(delta, mu)])
            for u in _multiset_permutations(rem):
                for cut in range(len(u) + 1):
                    w1 = NCPoly.monomial(u[:cut], fieldobj, nvars=m)
                    w2 = NCPoly.monomial(u[cut:], fieldobj, nvars=m)
                    row = (w1 * sub * w2).terms
                    key = frozenset(row.items())
                    if key in seen:
                        continue
                    seen.add(key)
                    rows.append(row)
    return rows


def _canonical_spec(field, m):
    """Gamma_3 at i < j and St_3 at i < j < k."""
    letters = range(1, m + 1)
    return [
        (gamma(3, field), [t for t in product(letters, repeat=3) if t[0] < t[1]]),
        (st3(field), list(combinations(letters, 3))),
    ]


def _full_spec(field, m):
    """Every index tuple of Gamma_3, St_3 and T_4."""
    letters = range(1, m + 1)
    return [
        (g, list(product(letters, repeat=arity)))
        for g, arity in ((gamma(3, field), 3), (st3(field), 3), (t4(field), 4))
    ]


@pytest.mark.parametrize("field", [QQ, Field.prime(2), Field.prime(3)], ids=repr)
def test_span_rows_equal_the_product_rows(field):
    # the int rows on word codes, decoded and taken into the field, are the
    # product rows term for term; over F_2 a merged coefficient 2 drops out
    for n in range(1, 7):
        for delta in degree_multidegrees(n):
            words = words_of_multidegree(delta)
            rows = _ideal_span_rows(delta)
            assert all(type(k) is int and type(c) is int for r in rows for k, c in r.items())
            decoded = [
                field.add_into({}, ((words[-k], field.of(c)) for k, c in r.items()))
                for r in rows
            ]
            expected = _product_span_rows(delta, field, _canonical_spec(field, len(delta)))
            assert [list(r.items()) for r in decoded] == [list(r.items()) for r in expected]


def _lift(pattern, idxs, field):
    """The terms of a pattern at an index tuple, merged as ``add_into`` does."""
    pairs = ((tuple(idxs[t] for t in pos), field.of(c)) for pos, c in pattern)
    return list(field.add_into({}, pairs).items())


@pytest.mark.parametrize(
    "field", [QQ, Field.prime(2), Field.prime(3), Field.prime(32003)], ids=repr
)
def test_span_patterns_are_the_generators_in_term_order(field):
    for pattern, g in ((_GAMMA3, gamma(3, field)), (_ST3, st3(field))):
        assert _lift(pattern, (1, 2, 3), field) == list(g.terms.items())
        assert _lift(pattern, (1, 2, 1), field) == list(generator_at(g, (1, 2, 1)).terms.items())


@pytest.mark.parametrize(
    "field", [QQ, Field.prime(2), Field.prime(3), Field.prime(5)], ids=repr
)
def test_span_rows_have_the_rank_of_every_generator_tuple(field):
    deltas = [d for n in range(1, 7) for d in degree_multidegrees(n)]
    for delta in deltas + [(1, 2), (0, 2, 1), (2, 0, 2)]:
        rows = _ideal_span_rows(delta)
        assert all(rows), delta
        assert len({frozenset(r.items()) for r in rows}) == len(rows), delta
        full = _product_span_rows(delta, field, _full_spec(field, len(delta)))
        # int codes, lex-largest word least, as the span rows are keyed; a
        # relabelling of the columns leaves the rank alone
        words = sorted({w for r in full for w in r}, reverse=True)
        code = {w: i for i, w in enumerate(words)}
        rank, _ = row_reduce_sparse(
            [{code[w]: c for w, c in r.items()} for r in full], field
        )
        assert ideal_span_dimension(delta, field) == rank, delta


@pytest.mark.parametrize("field", [QQ, Field.prime(2), Field.prime(3)], ids=repr)
def test_t4_is_a_consequence_of_gamma3_and_st3(field):
    x = lambda i: NCPoly.variable(i, field, nvars=4)
    g3 = lambda *idxs: generator_at(gamma(3, field), idxs)
    rest = t4(field) - commutator(st3(field), x(4))
    assert rest == g3(1, 3, 4) * x(2) - g3(1, 2, 4) * x(3) - g3(2, 3, 4) * x(1)
    gamma_rows = _product_span_rows(
        (1, 1, 1, 1), field, [(gamma(3, field), list(product(range(1, 5), repeat=3)))]
    )
    rank = row_reduce_sparse(gamma_rows, field)[0]
    assert row_reduce_sparse(gamma_rows + [rest.terms], field)[0] == rank
    # the St_3 part is not a Gamma_3 consequence
    assert row_reduce_sparse(gamma_rows + [t4(field).terms], field)[0] == rank + 1


@pytest.mark.parametrize("field", [QQ, F7])
def test_verify_degree_three(field):
    r = verify_conjecture((1, 1, 1), field)
    assert r.verdict == "Verified"
    assert r.dim_id == r.dim_I == 3
    assert r.n_reduced == r.eval_rank == 2
    r = verify_conjecture((2, 1), field)
    assert r.verdict == "Verified" and r.dim_id == 1
    r = verify_conjecture((3,), field)
    assert r.verdict == "Verified" and r.dim_id == 0 and r.n_reduced == 0


def test_verify_dimensions_match_basis_route():
    for delta in [(1, 1, 1, 1), (2, 2), (2, 1, 1)]:
        r = verify_conjecture(delta, QQ)
        assert r.verdict == "Verified"
        assert r.dim_id == len(identity_basis(delta, QQ))
        assert r.dim_I == ideal_span_dimension(delta, QQ)


@pytest.mark.parametrize("field", [Field.prime(2), Field.prime(3), Field.prime(5)], ids=repr)
def test_exact_cross_check_in_small_characteristic(field):
    # criteria 12 and 16 over Q, here where the integer span rows and image
    # rows are reduced mod p as they enter the eliminator
    for n in range(1, 7):
        for delta in degree_multidegrees(n):
            basis = identity_basis(delta, field)
            r = verify_conjecture(delta, field)
            assert len(basis) == ideal_span_dimension(delta, field) == r.dim_id, delta


def _eliminated_ranks(delta, field):
    # the ranks of the generic evaluations of the reduced keys, without and
    # with the pure word, by exact elimination here, without the certificate
    reduced = enumerate_completely_reduced(delta)
    pure = words_of_multidegree(delta)[0]
    rows = _integer_images([field.integral(b.expand(field).terms)[1] for b in reduced] + [{pure: 1}])
    rank_full, _ = row_reduce_sparse(rows, field)
    return row_reduce_sparse(rows[:-1], field)[0], rank_full


@pytest.mark.parametrize("field", [QQ, Field.prime(2)])
def test_one_elimination_matches_separate_ranks(field):
    for n in range(1, 6):
        for delta in degree_multidegrees(n):
            rank_rows, rank_full = _eliminated_ranks(delta, field)
            r = verify_conjecture(delta, field)
            assert r.eval_rank == rank_rows, delta
            assert r.dim_id == space_dimension(delta) - rank_full, delta


@pytest.mark.parametrize(
    "field, degree",
    [(QQ, 7), (Field.prime(2), 6), (Field.prime(3), 6), (Field.prime(32003), 6)],
)
def test_certified_reports_equal_exact_reports(field, degree):
    # every certified report, field for field, against the report the
    # exact ranks give: Verified when the reduced keys are independent and
    # the pure word adds one to their rank
    for n in range(1, degree + 1):
        for delta in degree_multidegrees(n):
            rank_rows, rank_full = _eliminated_ranks(delta, field)
            n_reduced = len(enumerate_completely_reduced(delta))
            assert rank_rows == n_reduced and rank_full == n_reduced + 1, delta
            dim_id = space_dimension(delta) - rank_full
            spec = "q" if field.p == 0 else f"fp:{field.p}"
            r = verify_conjecture(delta, field)
            assert r.route == "certified", delta
            assert _without_time(r) == {
                "mdeg": list(delta), "field": spec, "n_reduced": n_reduced,
                "eval_rank": rank_rows, "dim_id": dim_id, "dim_I": dim_id,
                "verdict": "Verified", "witness": None,
            }, delta


def _without_time(report):
    d = report.to_dict()
    del d["elapsed_ms"]
    return d


def _with_extra_key(monkeypatch, extra):
    from weylpi import identities

    real = identities.enumerate_completely_reduced
    monkeypatch.setattr(
        identities,
        "enumerate_completely_reduced",
        lambda d: real(d) + (real(d)[:1] if extra == "repeat" else [extra]),
    )


@pytest.mark.parametrize(
    "extra",
    [
        # a repeated key gives the zero dependency
        "repeat",
        # x3[x1,x2] gives the dependency St_3, an identity of the ideal,
        # but it shares its r-multiset {1} with x2[x1,x3]
        BracketMonomial((3,), ((1, 2),)),
    ],
    ids=["repeated-key", "st3-span"],
)
def test_verify_is_inconclusive_when_no_dependency_leaves_the_span(monkeypatch, extra):
    # the dependency lies in the ideal, but the certificate refuses, and
    # verify claims nothing rather than search for it
    _with_extra_key(monkeypatch, extra)
    r = verify_conjecture((1, 1, 1), QQ)
    assert (r.verdict, r.route) == ("Inconclusive", "uncertified")
    assert (r.n_reduced, r.eval_rank, r.dim_id, r.dim_I) == (3, None, None, None)
    assert _without_time(r)["witness"] is None


def test_verify_is_uncertified_when_a_key_repeats(monkeypatch, capsys, tmp_path):
    # a repeated key repeats its r-multiset, so the certificate itself
    # refuses, and the report claims nothing
    from weylpi import cli

    _with_extra_key(monkeypatch, "repeat")
    monkeypatch.delenv("WEYLPI_MAX_DEGREE", raising=False)
    r = verify_conjecture((2, 1, 1), QQ)
    assert (r.verdict, r.route) == ("Inconclusive", "uncertified")
    assert (r.n_reduced, r.eval_rank, r.dim_id, r.dim_I) == (4, None, None, None)

    assert cli.main(["verify", "--mdeg", "2,1,1"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "mdeg=(2,1,1) verdict=Inconclusive n_reduced=4 eval_rank=None dim_id=None dim_I=None",
        "summary: 0/1 Verified",
    ]
    assert err == ""
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--mdeg", "2,1,1", "--json", str(path)]) == 1
    assert capsys.readouterr().out == out
    (rep,) = json.loads(path.read_text())["reports"]
    assert isinstance(rep.pop("elapsed_ms"), float)
    assert rep == {
        "mdeg": [2, 1, 1], "field": "q", "n_reduced": 4, "eval_rank": None,
        "dim_id": None, "dim_I": None, "verdict": "Inconclusive", "witness": None,
    }


@pytest.mark.parametrize("field", [QQ, Field.prime(2)])
def test_fallback_does_not_consult_the_rewriter(monkeypatch, field):
    # neither the certified route nor the uncertified guard calls normal_form
    from weylpi import identities, rewriter

    real = identities.enumerate_completely_reduced
    deltas = [d for n in range(1, 6) for d in degree_multidegrees(n)]

    def reports():
        out = []
        for keys in (real, lambda d: real(d) + real(d)[:1]):
            monkeypatch.setattr(identities, "enumerate_completely_reduced", keys)
            out += [verify_conjecture(d, field) for d in deltas]
        return [(_without_time(r), r.route) for r in out]

    unpatched = reports()

    def refuse(*args, **kwargs):
        raise AssertionError("verify called normal_form")

    monkeypatch.setattr(rewriter, "normal_form", refuse)
    assert reports() == unpatched


def test_full_rank_certificate_checks_every_bracket_count_block():
    from weylpi import identities

    monomials = enumerate_completely_reduced((2, 1, 1, 1)) + [((1, 1, 2, 3, 4), ())]
    assert identities._full_rank(monomials)
    # a duplicated row repeats its leading term, whichever block it is in,
    # as the block's last row or ahead of its other rows
    for row in monomials:
        assert not identities._full_rank(monomials + [row])
        assert not identities._full_rank([row] + monomials)
    # x3[x1,x2] is not reduced, and its leading term x a3 a2 b1 is that of
    # x2[x1,x3], so the check cannot certify it beside the keys of (1,1,1)
    keys = enumerate_completely_reduced((1, 1, 1)) + [((1, 2, 3), ())]
    assert ((2,), ((1, 3),)) in keys and identities._full_rank(keys)
    assert not identities._full_rank(keys + [((3,), ((1, 2),))])
    # ((), ((2, 3), (1, 4))) has nested brackets, and its r's {1, 2} are
    # those of [x1,x3] [x2,x4]
    keys = enumerate_completely_reduced((1, 1, 1, 1)) + [((1, 2, 3, 4), ())]
    assert ((), ((1, 3), (2, 4))) in keys and identities._full_rank(keys)
    assert not identities._full_rank(keys + [((), ((2, 3), (1, 4)))])


def test_verify_respects_degree_cap(monkeypatch, capsys):
    # the library applies no cap; the CLI refuses above its own
    from weylpi import cli

    assert verify_conjecture((5, 4), QQ).verdict == "Verified"
    monkeypatch.setenv("WEYLPI_MAX_DEGREE", "8")
    assert cli.main(["verify", "--mdeg", "5,4"]) == 3
    assert capsys.readouterr().err == "resource limit: total degree 9 exceeds cap 8\n"
    monkeypatch.setenv("WEYLPI_MAX_DEGREE", "3")
    assert cli.main(["verify", "--mdeg", "2,1"]) == 0  # at the cap is fine


def test_two_variable_certificate_values():
    for r in range(1, 5):
        for s in range(1, r + 1):
            table = two_variable_certificate(r, s, QQ)
            assert [i for i, _, _ in table] == list(range(1, s + 1))
            for i, mono, value in table:
                sign = QQ.of((-1) ** i)
                assert value == WeylElement.basis(r - i, s - i, QQ).scale(sign)
                assert substitute_tuple(mono, ("x", "y")) == value
    with pytest.raises(ValueError):
        two_variable_certificate(1, 2, QQ)


def test_report_serialization():
    r = verify_conjecture((1, 1, 1), F7)
    d = r.to_dict()
    assert d["mdeg"] == [1, 1, 1]
    assert d["field"] == "fp:7"
    assert d["verdict"] == "Verified"
    assert d["witness"] is None
    assert isinstance(d["elapsed_ms"], float)
    assert verify_conjecture((1, 1), QQ).to_dict()["field"] == "q"


def test_report_is_immutable():
    r = verify_conjecture((2, 1), QQ)
    with pytest.raises(AttributeError):
        r.elapsed_ms = 0.0


def test_degree_multidegrees_are_partitions():
    assert degree_multidegrees(3) == [(3,), (2, 1), (1, 1, 1)]
    assert degree_multidegrees(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(degree_multidegrees(6)) == 11
    for delta in degree_multidegrees(6):
        assert sum(delta) == 6
        assert tuple(sorted(delta, reverse=True)) == delta


def test_dim_I_never_exceeds_dim_id():
    for n in (3, 4):
        for delta in degree_multidegrees(n):
            r = verify_conjecture(delta, QQ)
            assert r.dim_I is None or r.dim_I <= r.dim_id


@pytest.mark.parametrize("field", [QQ, Field.prime(2)], ids=repr)
def test_degrees_thirteen_and_fourteen_certified(field):
    # the README's "every partition of degree <= 14 is certified", beyond
    # the acceptance gate, which stops at 12
    for delta in degree_multidegrees(13) + degree_multidegrees(14):
        r = verify_conjecture(delta, field)
        assert (r.verdict, r.route) == ("Verified", "certified"), delta
