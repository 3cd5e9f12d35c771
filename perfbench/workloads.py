"""The four benchmark workloads: seeded inputs, the timed operation of
each, and the check of every output.

Inputs are plain data (multidegrees or expression text); the operations
call the public ``weylpi`` functions through their modules at call time,
so the tracer's patches are seen.  ``weylpi`` is imported lazily, because
``run.py`` times that import as part of set-up.

Expression shapes, with an order-preserving renaming of their letters
into x1..x8, are drawn once from ``SHAPE_SEED``; ``--seed`` draws the
coefficients and the run order.  Drawing the shapes per seed made the cost
of a run depend on the seed by 10-25% (interquartile range over seeds,
200-400 expressions), which is wider than the regression bounds.  Drawing
the renaming per seed moved the median ``check-d5`` operation by 0.06 of
its median over six seeds in one process (0.03 with the renaming fixed):
evaluation cost depends on which variable indices are used.  Rewriting cost
depends on the shape and the relative order of the letters, not on the
coefficients.
"""

import hashlib
import json
import random
from dataclasses import dataclass

SHAPE_SEED = 20240214
DEFAULT_SEED = 1
FP = 32003
MAX_VAR = 8

WORKLOADS = ("verify-d6", "crosscheck-d5", "normalize-d7", "check-d5")
N_NORMALIZE = 100
N_CHECK = 120
SMOKE_JOBS = {"verify-d6": 5, "crosscheck-d5": 4, "normalize-d7": 6, "check-d5": 12}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mdeg_key(delta):
    return ",".join(str(d) for d in delta)


def partitions(n, largest=None):
    """Partitions of n, largest part first (the ``verify --degree`` sweep)."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    ]


# -- expression shapes --------------------------------------------------------


def _shape(rng, degree, delta, n_terms, bracket_p):
    """Terms as factor lists over letters 1..len(delta): an int is a letter,
    a pair is a commutator of two distinct letters."""
    terms = []
    for _ in range(n_terms):
        letters = [i + 1 for i, d in enumerate(delta) for _ in range(d)]
        rng.shuffle(letters)
        factors, i = [], 0
        while i < degree:
            if i + 1 < degree and letters[i] != letters[i + 1] and rng.random() < bracket_p:
                factors.append((letters[i], letters[i + 1]))
                i += 2
            else:
                factors.append(letters[i])
                i += 1
        terms.append(factors)
    return terms


def _split(rng, total, m):
    """A multidegree of m variables, each of degree >= 1, summing to total."""
    cuts = sorted(rng.sample(range(1, total), m - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _renaming(rng, m):
    """Letters 1..m to m of the variable indices 1..MAX_VAR, in order."""
    return dict(enumerate(sorted(rng.sample(range(1, MAX_VAR + 1), m)), start=1))


def _normalize_shapes():
    """(renaming, terms) per expression."""
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for _ in range(N_NORMALIZE):
        m = rng.randint(3, 6)
        terms = _shape(rng, 7, _split(rng, 7, m), rng.randint(2, 4), 0.2)
        shapes.append((_renaming(rng, m), terms))
    return shapes


def _check_shapes():
    """(renaming, terms, make_identity); half multilinear, a third identities.

    An identity is built from one term t as t - NF(t), so that no choice of
    coefficients cancels words and changes its cost."""
    rng = random.Random(SHAPE_SEED + 1)
    shapes = []
    for i in range(N_CHECK):
        degree = rng.choice((4, 5))
        if i % 2 == 0:
            delta = [1] * degree
        else:
            delta = _split(rng, degree, rng.randint(2, degree - 2))
        identity = i % 3 == 0
        terms = _shape(rng, degree, delta, 1 if identity else rng.randint(2, 4), 0.3)
        shapes.append((_renaming(rng, len(delta)), terms, identity))
    return shapes


def _render(terms, coeffs, names):
    out = []
    for factors, c in zip(terms, coeffs):
        parts = [
            f"[x{names[f[0]]},x{names[f[1]]}]" if isinstance(f, tuple) else f"x{names[f]}"
            for f in factors
        ]
        sign = "-" if c < 0 else "+"
        out.append(f"{sign} {abs(c)}*{'*'.join(parts)}")
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else text


def _instantiate(rng, names, terms):
    coeffs = [rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)) for _ in terms]
    return _render(terms, coeffs, names)


# -- jobs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    key: str  # multidegree or expression text
    identity: bool = False  # check-d5: constructed as f - NF(f)


def make_jobs(workload, seed, smoke=False):
    """The seeded job list of one pass."""
    rng = random.Random(seed)
    if workload in ("verify-d6", "crosscheck-d5"):
        deltas = partitions(6) if workload == "verify-d6" else partitions(5)[:-1]
        if smoke:
            deltas = deltas[: SMOKE_JOBS[workload]]
        rng.shuffle(deltas)
        return [Job(mdeg_key(d)) for d in deltas]
    if workload == "normalize-d7":
        shapes = _normalize_shapes()
        jobs = [Job(_instantiate(rng, names, terms)) for names, terms in shapes]
    elif workload == "check-d5":
        jobs = [_check_job(rng, names, terms, ident) for names, terms, ident in _check_shapes()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        jobs = jobs[: SMOKE_JOBS[workload]]
    rng.shuffle(jobs)
    return jobs


def _check_job(rng, names, terms, identity):
    text = _instantiate(rng, names, terms)
    if not identity:
        return Job(text)
    from weylpi import Field, format_poly, normal_form, parse_poly

    F = Field(FP)
    f = parse_poly(text, F)
    for nf in normal_form(f).values():
        f = f - nf.to_poly()
    return Job(format_poly(f), identity=True)


# -- operations ---------------------------------------------------------------


class Workload:
    """Field, warm-up, timed operation and output check of one workload."""

    def __init__(self, name, golden=None):
        import weylpi

        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.api = weylpi
        self.field = weylpi.Field(FP if name == "check-d5" else 0)
        self.golden = (golden or {}).get(name, {})
        self.op = getattr(self, "_op_" + name.split("-")[0])
        self.check = getattr(self, "_check_" + name.split("-")[0])

    def warm_up(self):
        """One small call of the workload's kind; fills the Weyl rewriting
        cache for the degrees the workload reaches."""
        api, F = self.api, self.field
        if self.name == "verify-d6":
            api.verify_conjecture((5, 1), F)
        elif self.name == "crosscheck-d5":
            api.identity_basis((4, 1), F)
            api.ideal_span_dimension((4, 1), F)
        elif self.name == "normalize-d7":
            api.normal_form(api.parse_poly("x2*x1*x3", F))
        else:
            api.is_weak_identity(api.parse_poly("x1^4*x2 - x2*x1^4", F))

    # verify-d6: the report without its timing field
    def _op_verify(self, job):
        delta = tuple(int(d) for d in job.key.split(","))
        report = self.api.verify_conjecture(delta, self.field).to_dict()
        del report["elapsed_ms"]
        return report

    def _check_verify(self, job, out):
        return out == self.golden[job.key]

    # crosscheck-d5: the fallback route, basis printed as ``idbasis`` does
    def _op_crosscheck(self, job):
        delta = tuple(int(d) for d in job.key.split(","))
        basis = self.api.identity_basis(delta, self.field)
        lines = [self.api.format_poly(f) for f in basis]
        dim_I = self.api.ideal_span_dimension(delta, self.field)
        return {"digest": digest("\n".join(lines)), "n": len(basis), "dim_I": dim_I}

    def _check_crosscheck(self, job, out):
        want = self.golden[job.key]
        return out["n"] == out["dim_I"] == want["dim_id"] and out["digest"] == want["digest"]

    # normalize-d7: parse, normal form, ``normalize --json`` payload
    def _op_normalize(self, job):
        F = self.field
        f = self.api.parse_poly(job.key, F)
        forms = self.api.normal_form(f)
        payload = [
            {
                "mdeg": list(delta),
                "beta": F.format(forms[delta].beta),
                "terms": [
                    {"coeff": F.format(c), "monomial": mono.format()}
                    for mono, c in forms[delta].sorted_terms()
                ],
            }
            for delta in sorted(forms)
        ]
        return f, forms, json.dumps(payload, sort_keys=True)

    def _check_normalize(self, job, out):
        f, forms, text = out
        want = self.golden.get(digest(job.key))
        if want is not None and want != digest(text):
            return False
        return normal_form_is_valid(self.api, f, forms)

    # check-d5: parse and decide weak-identity membership over F_32003
    def _op_check(self, job):
        return self.api.is_weak_identity(self.api.parse_poly(job.key, self.field))

    def _check_check(self, job, out):
        want = self.golden.get(digest(job.key))
        if want is not None and want != out:
            return False
        return out if job.identity else True


def normal_form_is_valid(api, f, forms):
    """Seed-independent truths of a normal form: one entry per nonzero
    multidegree component; beta is the component's coefficient sum (every
    commutator vanishes under commuting substitutions); every monomial is
    completely reduced and of the component's multidegree."""
    F = f.field
    comps = f.multihomogeneous_components()
    if set(forms) != set(comps):
        return False
    for delta, nf in forms.items():
        total = F.zero
        for c in comps[delta].terms.values():
            total = F.add(total, c)
        if nf.beta != total:
            return False
        for mono in nf.terms:
            if mono.status() != api.Status.COMPLETELY_REDUCED:
                return False
            if mono.mdeg(len(delta)) != delta:
                return False
    return True
