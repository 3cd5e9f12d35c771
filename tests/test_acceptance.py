"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from itertools import product

from childenv import child_env
from weylpi.bracket import BracketMonomial, enumerate_completely_reduced
from weylpi.evaluation import generic_substitution, is_weak_identity, substitute_tuple
from weylpi.fields import Field
from weylpi.free_algebra import NCPoly, gamma, generator_at, st3, t4
from weylpi.identities import (
    degree_multidegrees,
    ideal_span_dimension,
    identity_basis,
    space_dimension,
    two_variable_certificate,
    verify_conjecture,
    words_of_multidegree,
)
from weylpi.linalg import row_reduce_sparse
from weylpi.rewriter import normal_form, semi_reduce
from weylpi.weyl import WeylElement, commutator_with_y

QQ = Field.rationals()
F3 = Field.prime(3)
F5 = Field.prime(5)


class _Timer:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.2f}s, limit {self.limit:g}s)")
        assert elapsed < self.limit, f"{self.label}: {elapsed:.2f}s over limit"


def _span_rank(polys, delta, field):
    words = words_of_multidegree(delta)
    index = {w: i for i, w in enumerate(words)}
    rows = [{index[w]: c for w, c in f.terms.items()} for f in polys]
    rank, _ = row_reduce_sparse(rows, field)
    return rank


def test_criterion_01_degree_three_spaces():
    with _Timer("criterion 1: degree-3 identity spaces and spans", 1.0):
        basis = identity_basis((1, 1, 1), QQ)
        assert len(basis) == 3
        known = [gamma(3, QQ), generator_at(gamma(3, QQ), (1, 3, 2)), st3(QQ)]
        assert _span_rank(known, (1, 1, 1), QQ) == 3
        assert _span_rank(basis + known, (1, 1, 1), QQ) == 3

        basis21 = identity_basis((2, 1), QQ)
        assert len(basis21) == 1
        g = NCPoly(QQ, 2, generator_at(gamma(3, QQ), (1, 2, 1)).terms)
        assert _span_rank(basis21 + [g], (2, 1), QQ) == 1

        assert identity_basis((3,), QQ) == []


def test_criterion_02_minimality():
    with _Timer("criterion 2: no identities below degree 3", 1.0):
        for delta in [(1,), (2,), (1, 1), (2, 0), (1, 1, 0)]:
            assert identity_basis(delta, QQ) == []
        assert len(identity_basis((1, 1, 1), QQ)) > 0


def test_criterion_03_generator_membership():
    with _Timer("criterion 3: generators are weak identities over Q and F5", 1.0):
        for field in (QQ, F5):
            for m in range(3, 7):
                assert is_weak_identity(gamma(m, field))
            assert is_weak_identity(st3(field))
            assert is_weak_identity(t4(field))


def test_criterion_04_enumeration_counts():
    with _Timer("criterion 4: completely reduced enumeration counts and lists", 1.0):
        expected = {
            (1, 1): ["[x1,x2]"],
            (1, 1, 1): ["x1 [x2,x3]", "x2 [x1,x3]"],
            (1, 1, 1, 1): [
                "x1 x2 [x3,x4]",
                "x1 x3 [x2,x4]",
                "x2 x3 [x1,x4]",
                "[x1,x2] [x3,x4]",
                "[x1,x3] [x2,x4]",
            ],
            (1, 1, 1, 1, 1): [
                "x1 x2 x3 [x4,x5]",
                "x1 x2 x4 [x3,x5]",
                "x1 x3 x4 [x2,x5]",
                "x2 x3 x4 [x1,x5]",
                "x1 [x2,x3] [x4,x5]",
                "x1 [x2,x4] [x3,x5]",
                "x2 [x1,x3] [x4,x5]",
                "x2 [x1,x4] [x3,x5]",
                "x3 [x1,x4] [x2,x5]",
            ],
        }
        counts = []
        for delta, listed in expected.items():
            got = [m.format() for m in enumerate_completely_reduced(delta)]
            assert got == listed
            counts.append(len(got))
        assert counts == [1, 2, 5, 9]


def test_criterion_05_degrees_four_and_five_verified():
    with _Timer("criterion 5: verify degrees 4 and 5 over Q", 60.0):
        for n in (4, 5):
            for delta in degree_multidegrees(n):
                assert verify_conjecture(delta, QQ).verdict == "Verified"


def test_criterion_06_two_variable_theorem():
    with _Timer("criterion 6: two-variable multidegrees up to total degree 8", 10.0):
        for r in range(1, 8):
            for s in range(1, min(r, 8 - r) + 1):
                assert verify_conjecture((r, s), QQ).verdict == "Verified"
                for i, _, value in two_variable_certificate(r, s, QQ):
                    sign = QQ.of((-1) ** i)
                    assert value == WeylElement.basis(r - i, s - i, QQ).scale(sign)


def _random_multihomogeneous(rng, field, max_deg, max_vars):
    nvars = rng.randint(1, max_vars)
    deg = rng.randint(1, max_deg)
    letters = [rng.randint(1, nvars) for _ in range(deg)]
    terms = {}
    perm = list(letters)
    for _ in range(rng.randint(1, 4)):
        rng.shuffle(perm)
        c = field.of(rng.randint(-5, 5))
        if not field.is_zero(c):
            terms[tuple(perm)] = c
    return NCPoly(field, nvars, terms)


def test_criterion_07_rewriter_soundness():
    with _Timer("criterion 7: 500 random normal forms preserve evaluation", 120.0):
        rng = random.Random(20260824)
        for _ in range(500):
            f = _random_multihomogeneous(rng, QQ, max_deg=5, max_vars=4)
            forms = normal_form(f)
            recon = NCPoly.zero(QQ, f.nvars)
            for nf in forms.values():
                recon = recon + nf.to_poly()
            assert generic_substitution(f) == generic_substitution(recon)
            if not f.is_zero():
                beta, _ = semi_reduce(f)
                w = substitute_tuple(f, ("x",) * f.nvars)
                assert beta == w.terms.get((sum(f.mdeg()), 0, ()), QQ.zero)


def _random_bracket_monomial(rng):
    k = rng.randint(1, 3)
    brackets = []
    for _ in range(k):
        r = rng.randint(1, 5)
        s = rng.randint(r + 1, 6)
        brackets.append((r, s))
    l = rng.randint(0, 7 - 2 * k)
    prefix = tuple(rng.randint(1, 6) for _ in range(l))
    return BracketMonomial(prefix, tuple(brackets))


def test_criterion_08_expansion_uniqueness():
    with _Timer("criterion 8: 1000 distinct monomial pairs expand distinctly", 120.0):
        rng = random.Random(8)
        checked = 0
        while checked < 1000:
            a = _random_bracket_monomial(rng)
            b = _random_bracket_monomial(rng)
            if a == b:
                continue
            ea, eb = a.expand(QQ), b.expand(QQ)
            assert ea != eb
            for e, mono in ((ea, a), (eb, b)):
                assert len(e.terms) == 2 ** len(mono.brackets)
                assert all(c in (QQ.of(1), QQ.of(-1)) for c in e.terms.values())
            checked += 1


def _brute_force_normal_order(word, field):
    terms = {}
    work = [(tuple(word), field.one)]
    while work:
        w, c = work.pop()
        for i in range(len(w) - 1):
            if w[i] == "y" and w[i + 1] == "x":
                work.append((w[:i] + ("x", "y") + w[i + 2 :], c))
                work.append((w[:i] + w[i + 2 :], c))
                break
        else:
            key = (w.count("x"), w.count("y"), ())
            s = field.add(terms.get(key, field.zero), c)
            if field.is_zero(s):
                terms.pop(key, None)
            else:
                terms[key] = s
    return WeylElement(field, terms)


def test_criterion_09_weyl_oracle():
    with _Timer("criterion 9: multiplication oracle and derivative rule", 120.0):
        for field in (QQ, F3):
            for n in range(0, 7):
                for word in product("xy", repeat=n):
                    out = WeylElement.one(field)
                    for letter in word:
                        out = out * (
                            WeylElement.x(field)
                            if letter == "x"
                            else WeylElement.y(field)
                        )
                    assert out == _brute_force_normal_order(word, field)
            for n in range(1, 11):
                xn = WeylElement.basis(n, 0, field)
                expected = WeylElement.basis(n - 1, 0, field).scale(field.of(n))
                assert commutator_with_y(xn) == expected
        assert commutator_with_y(WeylElement.basis(3, 0, F3)).is_zero()


# (mdeg, n_reduced, eval_rank, dim_id, dim_I) of ``verify --degree 6`` over Q,
# all Verified without a witness; the report must stay the same across
# refactors
DEGREE_SIX = [
    ((6,), 0, 0, 0, 0),
    ((5, 1), 1, 1, 4, 4),
    ((4, 2), 2, 2, 12, 12),
    ((4, 1, 1), 3, 3, 26, 26),
    ((3, 3), 3, 3, 16, 16),
    ((3, 2, 1), 5, 5, 54, 54),
    ((3, 1, 1, 1), 7, 7, 112, 112),
    ((2, 2, 2), 6, 6, 83, 83),
    ((2, 2, 1, 1), 9, 9, 170, 170),
    ((2, 1, 1, 1, 1), 13, 13, 346, 346),
    ((1, 1, 1, 1, 1, 1), 19, 19, 700, 700),
]


def test_criterion_10_degree_six_frontier(tmp_path):
    with _Timer("criterion 10: degree-6 sweep schema, determinism, consistency", 300.0):
        payloads = []
        for name in ("run1.json", "run2.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "weylpi.cli", "verify", "--degree", "6",
                 "--json", str(out)],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert proc.returncode in (0, 1)
            payloads.append(json.loads(out.read_text()))
        for payload in payloads:
            assert len(payload["reports"]) == len(degree_multidegrees(6))
            for rep in payload["reports"]:
                assert set(rep) == {
                    "mdeg", "field", "n_reduced", "eval_rank", "dim_id",
                    "dim_I", "verdict", "witness", "elapsed_ms",
                }
                assert rep["field"] == "q"
                assert rep["verdict"] in ("Verified", "Inconclusive")
                assert sum(rep["mdeg"]) == 6
                assert 0 <= rep["eval_rank"] <= rep["n_reduced"]
                if rep["dim_I"] is not None:
                    assert rep["dim_I"] <= rep["dim_id"]
        stripped = [
            [{k: v for k, v in rep.items() if k != "elapsed_ms"} for rep in p["reports"]]
            for p in payloads
        ]
        assert stripped[0] == stripped[1]
        assert stripped[0] == [
            {"mdeg": list(mdeg), "field": "q", "n_reduced": n, "eval_rank": r,
             "dim_id": dim_id, "dim_I": dim_I, "verdict": "Verified", "witness": None}
            for mdeg, n, r, dim_id, dim_I in DEGREE_SIX
        ]


def test_criterion_11_degree_nine_certified():
    with _Timer("criterion 11: every partition of 9 certified over Q", 10.0):
        for delta in degree_multidegrees(9):
            r = verify_conjecture(delta, QQ)
            assert (r.verdict, r.route) == ("Verified", "certified"), delta


def test_criterion_12_degree_six_exact_cross_check():
    # the check that goes through neither the rewriter nor the certificate:
    # the exact identity space and the exact ideal span; 1.1 s here
    with _Timer("criterion 12: identity basis = ideal span = dim_id at degree 6", 8.0):
        for delta in degree_multidegrees(6):
            dim_id = verify_conjecture(delta, QQ).dim_id
            assert len(identity_basis(delta, QQ)) == ideal_span_dimension(delta, QQ) == dim_id, delta


def test_criterion_13_degree_ten_certified():
    with _Timer("criterion 13: every partition of 10 certified over Q", 10.0):
        for delta in degree_multidegrees(10):
            r = verify_conjecture(delta, QQ)
            assert (r.verdict, r.route) == ("Verified", "certified"), delta


def test_criterion_14_small_fields_certified():
    with _Timer("criterion 14: every partition certified over F2 to 10, F2/F3/F5 to 8", 10.0):
        F2 = Field.prime(2)
        for delta in degree_multidegrees(9) + degree_multidegrees(10):
            r = verify_conjecture(delta, F2)
            assert (r.verdict, r.route) == ("Verified", "certified"), delta
        for field in (F2, F3, F5):
            for n in range(1, 9):
                for delta in degree_multidegrees(n):
                    r = verify_conjecture(delta, field)
                    assert (r.verdict, r.route) == ("Verified", "certified"), (field, delta)


def test_criterion_15_degrees_eleven_and_twelve_certified():
    with _Timer("criterion 15: every partition of 11 and 12 certified over Q and F2", 10.0):
        for field in (QQ, Field.prime(2)):
            for delta in degree_multidegrees(11) + degree_multidegrees(12):
                r = verify_conjecture(delta, field)
                assert (r.verdict, r.route) == ("Verified", "certified"), (field, delta)


def test_criterion_16_degree_seven_exact_cross_check():
    # criterion 12 one degree up, on the 12 partitions of 7 with at most
    # 840 words; 1^7, (2,1,1,1,1,1) and (2,2,1,1,1) are left out for time
    with _Timer("criterion 16: identity basis = ideal span = dim_id at degree 7", 8.0):
        deltas = [d for d in degree_multidegrees(7) if space_dimension(d) <= 840]
        assert len(deltas) == 12
        for delta in deltas:
            dim_id = verify_conjecture(delta, QQ).dim_id
            assert len(identity_basis(delta, QQ)) == ideal_span_dimension(delta, QQ) == dim_id, delta
