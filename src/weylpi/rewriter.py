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
"""

from dataclasses import dataclass, field as dc_field

from .bracket import BracketMonomial, Status, bracket_sort_key, format_key
from .errors import NotReduced, NotSemiReduced, ResourceLimit
from .free_algebra import NCPoly

_MAX_STEPS = 10_000_000


def _first_descent(prefix):
    for i in range(len(prefix) - 1):
        if prefix[i] > prefix[i + 1]:
            return i
    return None


def _first_nested(brackets):
    """First positions (u, v) with r_v < r_u < s_u < s_v (brackets s-sorted)."""
    for u in range(len(brackets)):
        ru, su = brackets[u]
        for v in range(u + 1, len(brackets)):
            rv, sv = brackets[v]
            if rv < ru and su < sv:
                return u, v
    return None


def _rewrite(initial, fieldobj, target, trace=None):
    """Worklist rewriting of (prefix, brackets) terms up to ``target`` status.

    ``initial`` is an iterable of ((prefix, brackets), coeff).  Returns
    (beta, out) where beta collects bracket-free sorted words and ``out``
    maps canonical (prefix, brackets) keys to coefficients.
    """
    F = fieldobj
    beta = F.zero
    out = {}
    stack = list(initial)
    steps = 0
    while stack:
        steps += 1
        if steps > _MAX_STEPS:
            raise ResourceLimit(f"rewriting exceeded the step cap of {_MAX_STEPS}")
        (prefix, brackets), c = stack.pop()
        brackets = tuple(sorted(brackets, key=bracket_sort_key))
        i = _first_descent(prefix)
        if i is not None:
            a, b = prefix[i], prefix[i + 1]  # a > b
            if trace is not None:
                trace.append(
                    f"swap: x{a} x{b} in {format_key(prefix, brackets)}"
                )
            stack.append(((prefix[:i] + (b, a) + prefix[i + 2 :], brackets), c))
            stack.append(
                ((prefix[:i] + prefix[i + 2 :], brackets + ((b, a),)), F.neg(c))
            )
            continue
        if not brackets:
            beta = F.add(beta, c)
            continue
        if target >= Status.REDUCED and prefix and prefix[-1] > brackets[0][1]:
            t_l = prefix[-1]
            r1, s1 = brackets[0]
            if trace is not None:
                trace.append(
                    f"pull-in: pull x{t_l} into [x{r1},x{s1}] in {format_key(prefix, brackets)}"
                )
            head = prefix[:-1]
            rest = brackets[1:]
            stack.append(((head + (s1,), ((r1, t_l),) + rest), c))
            stack.append(((head + (r1,), ((s1, t_l),) + rest), F.neg(c)))
            continue
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
                stack.append(((prefix, rest + ((a1, a2), (a3, a4))), F.neg(c)))
                stack.append(((prefix, rest + ((a1, a3), (a2, a4))), c))
                continue
        key = (prefix, brackets)
        s = F.add(out.get(key, F.zero), c)
        if F.is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s
    return beta, out


def _to_monomial_dict(raw):
    return {BracketMonomial(p, br): c for (p, br), c in raw.items()}


def semi_reduce(f, trace=None):
    """Rewrite a multihomogeneous polynomial into its pure-word coefficient
    beta plus a combination of semi-reduced bracket-monomials."""
    F = f.field
    if f.is_zero():
        return F.zero, {}
    f.mdeg()  # raises NotMultihomogeneous on mixed input
    initial = [((tuple(w), ()), c) for w, c in f.terms.items()]
    beta, raw = _rewrite(initial, F, Status.SEMI_REDUCED, trace)
    return beta, _to_monomial_dict(raw)


def reduce_monomial(b, fieldobj, trace=None):
    """Rewrite a semi-reduced bracket-monomial into reduced ones."""
    if b.status() < Status.SEMI_REDUCED:
        raise NotSemiReduced(b.format())
    beta, raw = _rewrite(
        [((b.prefix, b.brackets), fieldobj.one)], fieldobj, Status.REDUCED, trace
    )
    assert fieldobj.is_zero(beta)  # k never decreases, so no pure word appears
    return _to_monomial_dict(raw)


def completely_reduce(b, fieldobj, trace=None):
    """Rewrite a reduced bracket-monomial into completely reduced ones."""
    if b.status() < Status.REDUCED:
        raise NotReduced(b.format())
    beta, raw = _rewrite(
        [((b.prefix, b.brackets), fieldobj.one)],
        fieldobj,
        Status.COMPLETELY_REDUCED,
        trace,
    )
    assert fieldobj.is_zero(beta)
    return _to_monomial_dict(raw)


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
        return sorted(
            self.terms.items(), key=lambda it: (len(it[0].brackets), it[0].prefix, it[0].brackets)
        )

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

    def format(self):
        F = self.field
        parts = [f"beta={F.format(self.beta)}"]
        for mono, c in self.sorted_terms():
            parts.append(f"{F.format(c)} * {mono.format()}")
        return "; ".join(parts)


def normal_form(f, trace=None):
    """Canonical normal form of every multihomogeneous component.

    Returns a mapping multidegree -> NormalForm; the zero polynomial gives
    an empty mapping.  Every output monomial is completely reduced.
    """
    out = {}
    F = f.field
    for delta, comp in f.multihomogeneous_components().items():
        initial = [((tuple(w), ()), c) for w, c in comp.terms.items()]
        beta, raw = _rewrite(initial, F, Status.COMPLETELY_REDUCED, trace)
        nf = NormalForm(F, delta, beta, _to_monomial_dict(raw))
        out[delta] = nf
    return out
