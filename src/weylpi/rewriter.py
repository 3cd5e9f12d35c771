"""Reduction of multihomogeneous polynomials to completely reduced form.

Every multihomogeneous f is rewritten, modulo the ideal generated by
Gamma_3, St_3 and T_4, into

    beta * x1^d1 ... xm^dm  +  sum_i alpha_i * (completely reduced monomial)

using three rewrite rules:

  (swap)     f1 xj xi f2      ->  f1 xi xj f2 - f1 f2 [xi,xj]      (i < j)
  (pull-in)  x_t [x_r, x_s]   ->  x_s [x_r, x_t] - x_r [x_s, x_t]  (t > s)
  (unnest)   [a2,a3][a1,a4]   -> -[a1,a2][a3,a4] + [a1,a3][a2,a4]  (a1<a2<a3<a4)

The strategy always fixes the leftmost violation; termination follows the
strictly decreasing (monomial weight, bracket weight) measure.

Many rewrite paths meet in the same term, so one call builds a rewrite DAG
over canonical (prefix, brackets) keys, brackets sorted by
``bracket_sort_key``; a terminal key is returned as a ``BracketMonomial``.
A depth-first pass picks the rule of each distinct key once and records
its two signed successors (none for a terminal key); the coefficients are
then pushed down in topological order, so every key fires once with its
merged coefficient.  That arithmetic runs on integers (rationals scaled to
a common denominator) and each output coefficient enters the field once at
the end.  The step cap counts distinct keys, and a trace gets one line per
distinct rewrite, in the order first reached.
"""

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from math import lcm

from .bracket import BracketMonomial, Status, bracket_sort_key, format_key, term_order
from .bracket import _first_descent, _first_nested
from .errors import NotReduced, NotSemiReduced, ResourceLimit
from .free_algebra import NCPoly

_MAX_STEPS = 10_000_000


def _insert(brackets, br):
    """A canonical bracket tuple with ``br`` inserted in its place."""
    i = bisect_right(brackets, bracket_sort_key(br), key=bracket_sort_key)
    return brackets[:i] + (br,) + brackets[i:]


def _successors(key, target, trace):
    """The two (child key, sign) pairs of the rule that fires on a
    canonical key, or () if the key is terminal at ``target`` status.
    A firing rule appends its line to ``trace`` unless that is None."""
    prefix, brackets = key
    i = _first_descent(prefix)
    if i is not None:
        a, b = prefix[i], prefix[i + 1]  # a > b
        if trace is not None:
            trace.append(f"swap: x{a} x{b} in {format_key(prefix, brackets)}")
        return (
            ((prefix[:i] + (b, a) + prefix[i + 2 :], brackets), 1),
            ((prefix[:i] + prefix[i + 2 :], _insert(brackets, (b, a))), -1),
        )
    if not brackets:
        return ()
    if target >= Status.REDUCED and prefix and prefix[-1] > brackets[0][1]:
        t_l = prefix[-1]
        r1, s1 = brackets[0]
        if trace is not None:
            trace.append(
                f"pull-in: pull x{t_l} into [x{r1},x{s1}] in {format_key(prefix, brackets)}"
            )
        head = prefix[:-1]
        rest = brackets[1:]
        return (
            ((head + (s1,), _insert(rest, (r1, t_l))), 1),
            ((head + (r1,), _insert(rest, (s1, t_l))), -1),
        )
    if target >= Status.COMPLETELY_REDUCED:
        nested = _first_nested(brackets)
        if nested is not None:
            u, v = nested
            a2, a3 = brackets[u]
            a1, a4 = brackets[v]
            if trace is not None:
                trace.append(
                    f"unnest: [x{a2},x{a3}][x{a1},x{a4}] in {format_key(prefix, brackets)}"
                )
            rest = tuple(b for w, b in enumerate(brackets) if w not in (u, v))
            return (
                ((prefix, _insert(_insert(rest, (a1, a2)), (a3, a4))), -1),
                ((prefix, _insert(_insert(rest, (a1, a3)), (a2, a4))), 1),
            )
    return ()


def _rewrite(initial, fieldobj, target, trace=None):
    """Rewrite (prefix, brackets) terms up to ``target`` status.

    ``initial`` is a list of ((prefix, brackets), coeff).  Returns
    (beta, out) where beta collects bracket-free sorted words and ``out``
    maps canonical ``BracketMonomial`` keys to nonzero coefficients.
    """
    F = fieldobj
    den = 1
    for _, c in initial:
        den = lcm(den, c.denominator)
    coef = {}  # key -> integer coefficient times den
    stack = []
    for (prefix, brackets), c in initial:
        key = tuple(prefix), tuple(sorted(brackets, key=bracket_sort_key))
        coef[key] = coef.get(key, 0) + c.numerator * (den // c.denominator)
        stack.append(key)

    # discovery: depth first, each distinct key expanded once; a None on
    # the stack marks that the key below it is finished (post-order)
    succ = {}
    order = []
    while stack:
        key = stack.pop()
        if key is None:
            order.append(stack.pop())
            continue
        if key in succ:
            continue
        if len(succ) >= _MAX_STEPS:
            raise ResourceLimit(f"rewriting exceeded the step cap of {_MAX_STEPS}")
        children = succ[key] = _successors(key, target, trace)
        stack.append(key)
        stack.append(None)
        for child, _ in children:
            if child not in succ:
                stack.append(child)

    # propagation: reversed post-order is topological, so each key holds
    # its merged coefficient when it fires
    beta = 0
    out = {}
    for key in reversed(order):
        c = coef.pop(key, 0)
        if not c:
            continue
        children = succ[key]
        if children:
            for child, sign in children:
                coef[child] = coef.get(child, 0) + sign * c
        elif key[1]:
            v = F.of(c, den)
            if not F.is_zero(v):
                out[BracketMonomial._make(key)] = v
        else:
            beta += c
    return F.of(beta, den), out


def semi_reduce(f, trace=None):
    """Rewrite a multihomogeneous polynomial into its pure-word coefficient
    beta plus a combination of semi-reduced bracket-monomials."""
    F = f.field
    if f.is_zero():
        return F.zero, {}
    f.mdeg()  # raises NotMultihomogeneous on mixed input
    initial = [((tuple(w), ()), c) for w, c in f.terms.items()]
    return _rewrite(initial, F, Status.SEMI_REDUCED, trace)


def reduce_monomial(b, fieldobj, trace=None):
    """Rewrite a semi-reduced bracket-monomial into reduced ones."""
    if b.status() < Status.SEMI_REDUCED:
        raise NotSemiReduced(b.format())
    beta, out = _rewrite([(b, fieldobj.one)], fieldobj, Status.REDUCED, trace)
    assert fieldobj.is_zero(beta)  # k never decreases, so no pure word appears
    return out


def completely_reduce(b, fieldobj, trace=None):
    """Rewrite a reduced bracket-monomial into completely reduced ones."""
    if b.status() < Status.REDUCED:
        raise NotReduced(b.format())
    beta, out = _rewrite([(b, fieldobj.one)], fieldobj, Status.COMPLETELY_REDUCED, trace)
    assert fieldobj.is_zero(beta)
    return out


@dataclass
class NormalForm:
    """Per-multidegree result: beta * x1^d1...xm^dm + sum alpha_i * f_i."""

    field: object
    mdeg: tuple
    beta: object
    terms: dict = dc_field(default_factory=dict)

    def is_zero(self):
        return self.field.is_zero(self.beta) and not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda it: term_order(it[0]))

    def to_poly(self):
        """Reconstruct as an NCPoly (a representative of f mod the ideal)."""
        F = self.field
        nvars = len(self.mdeg)
        word = tuple(
            l for l, d in enumerate(self.mdeg, start=1) for _ in range(d)
        )
        out = NCPoly.monomial(word, F, coeff=self.beta, nvars=nvars)
        for mono, c in self.terms.items():
            out = out + mono.expand(F).scale(c)
        return NCPoly(F, max(out.nvars, nvars), out.terms)


def normal_form(f, trace=None):
    """Canonical normal form of every multihomogeneous component.

    Returns a mapping multidegree -> NormalForm; the zero polynomial gives
    an empty mapping.  Every output monomial is completely reduced.
    """
    out = {}
    F = f.field
    for delta, comp in f.multihomogeneous_components().items():
        initial = [((tuple(w), ()), c) for w, c in comp.terms.items()]
        beta, terms = _rewrite(initial, F, Status.COMPLETELY_REDUCED, trace)
        out[delta] = NormalForm(F, delta, beta, terms)
    return out
