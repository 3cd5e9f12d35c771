"""Reduction of multihomogeneous polynomials to completely reduced form.

Every multihomogeneous f is rewritten, modulo the ideal generated by
Gamma_3, St_3 and T_4, into

    beta * x1^d1 ... xm^dm  +  sum_i alpha_i * (completely reduced monomial)

using three rewrite rules:

  (swap)     f1 xj xi f2      ->  f1 xi xj f2 - f1 f2 [xi,xj]      (i < j)
  (pull-in)  x_t [x_r, x_s]   ->  x_s [x_r, x_t] - x_r [x_s, x_t]  (t > s)
  (unnest)   [a2,a3][a1,a4]   -> -[a1,a2][a3,a4] + [a1,a3][a2,a4]  (a1<a2<a3<a4)

The rule that fires on a term is the one for its leftmost violation.  A
term is a (prefix, brackets) key; inside this module each bracket [x_r, x_s]
is held as the pair (s, r), so plain tuple order sorts the brackets of a key
canonically and a new bracket goes in by bisection.  A terminal key is
turned back to (r, s) pairs and returned as a ``BracketMonomial``, and a
trace line prints brackets as [x_r,x_s].

Each rule sends a key to two keys that are strictly smaller in the order
(len(prefix), prefix, brackets):

  swap      the first child keeps the prefix length and is smaller where
            xj xi became xi xj; the second child's prefix is two letters
            shorter.
  pull-in   fires on a sorted prefix only, and puts x_s or x_r, both
            smaller than x_t, in place of its last and largest letter x_t.
  unnest    keeps the prefix; the least changed (s, r) pair of each child
            is new and smaller than both pairs it replaces, since
            (a2,a1) < (a3,a2) and (a3,a1) < (a3,a2).

So rewriting terminates, and one ordered pass rewrites each key once.  The
pending keys wait in a dict of merged coefficients and, per prefix length,
in a sorted list; the largest is popped first, so every parent of a key has
added into its coefficient before the key is popped.  A key whose merged
coefficient is zero in the field is dropped without being rewritten; any
other fires its rule once and adds +-c into its two children.  The
arithmetic runs on integers (``Field.integral`` scales the input to a
common denominator; over F_p each pop reduces mod p), and each output
coefficient enters the field once at the end, with ``Field.of``.  The
step cap counts the keys popped with a nonzero coefficient, terminal ones
included; a trace gets one line per rule that fires on such a key, in pop
order.
"""

from bisect import bisect_right, insort
from types import SimpleNamespace

from .bracket import BracketMonomial, Status, _first_descent, format_key, term_order
from .errors import NotReduced, NotSemiReduced, ResourceLimit
from .free_algebra import NCPoly, components, mdeg_word

_MAX_STEPS = 10_000_000


def _insert(brackets, sr):
    """An internal bracket tuple with the (s, r) pair ``sr`` inserted in its place."""
    i = bisect_right(brackets, sr)
    return brackets[:i] + (sr,) + brackets[i:]


def _internal(b):
    """The internal key of a ``BracketMonomial``."""
    return b.prefix, tuple(sorted((s, r) for r, s in b.brackets))


def _text(prefix, brackets):
    """``format_key`` of an internal key, brackets turned back to (r, s)."""
    return format_key(prefix, [(r, s) for s, r in brackets])


def _successors(key, target, trace):
    """(first child, second child, sign of the first) of the rule that fires
    on an internal key, or () if the key is terminal at ``target`` status;
    the second child's sign is minus the first's.  A firing rule appends its
    line to ``trace`` unless that is None."""
    prefix, brackets = key
    i = _first_descent(prefix)
    if i is not None:
        a, b = prefix[i], prefix[i + 1]  # a > b: the new bracket [x_b, x_a]
        if trace is not None:
            trace.append(f"swap: x{a} x{b} in {_text(prefix, brackets)}")
        return (
            (prefix[:i] + (b, a) + prefix[i + 2 :], brackets),
            (prefix[:i] + prefix[i + 2 :], _insert(brackets, (a, b))),
            1,
        )
    if not brackets:
        return ()
    if target >= Status.REDUCED and prefix and prefix[-1] > brackets[0][0]:
        t_l = prefix[-1]
        s1, r1 = brackets[0]
        if trace is not None:
            trace.append(
                f"pull-in: pull x{t_l} into [x{r1},x{s1}] in {_text(prefix, brackets)}"
            )
        head = prefix[:-1]
        rest = brackets[1:]
        return (
            (head + (s1,), _insert(rest, (t_l, r1))),
            (head + (r1,), _insert(rest, (t_l, s1))),
            1,
        )
    if target >= Status.COMPLETELY_REDUCED:
        # in (s, r) order a later bracket v nests an earlier u iff r_v < r_u
        for u, (a3, a2) in enumerate(brackets):
            for v in range(u + 1, len(brackets)):
                a4, a1 = brackets[v]
                if a1 < a2:
                    if trace is not None:
                        trace.append(
                            f"unnest: [x{a2},x{a3}][x{a1},x{a4}] in {_text(prefix, brackets)}"
                        )
                    rest = brackets[:u] + brackets[u + 1 : v] + brackets[v + 1 :]
                    return (
                        (prefix, _insert(_insert(rest, (a2, a1)), (a4, a3))),
                        (prefix, _insert(_insert(rest, (a3, a1)), (a4, a2))),
                        -1,
                    )
    return ()


def _rewrite(initial, fieldobj, target, trace=None):
    """Rewrite (prefix, brackets) terms up to ``target`` status.

    ``initial`` maps internal keys, brackets as sorted (s, r) pairs, to
    coefficients, at least one of them nonzero.  Returns (beta, out) where
    beta collects bracket-free sorted words and ``out`` maps canonical
    ``BracketMonomial`` keys to nonzero coefficients.
    """
    F = fieldobj
    # coef: each pending key's merged integer coefficient; pending[n]: the
    # pending keys with n prefix letters, ascending
    den, coef = F.integral(initial)
    pending = [[] for _ in range(max(len(prefix) for prefix, _ in coef) + 1)]
    for key in sorted(coef):
        pending[len(key[0])].append(key)

    p = F.p
    beta = 0
    out = {}
    steps = 0
    for todo in reversed(pending):
        while todo:
            key = todo.pop()
            c = coef.pop(key)
            if p:
                c %= p
            if not c:
                continue
            if steps >= _MAX_STEPS:
                raise ResourceLimit(f"rewriting exceeded the step cap of {_MAX_STEPS}")
            steps += 1
            children = _successors(key, target, trace)
            if not children:
                prefix, brackets = key
                if brackets:
                    mono = BracketMonomial._make((prefix, tuple((r, s) for s, r in brackets)))
                    out[mono] = F.of(c, den)
                else:
                    beta += c
                continue
            first, second, sign = children
            c *= sign
            for child, d in ((first, c), (second, -c)):
                old = coef.get(child)
                if old is None:
                    coef[child] = d
                    insort(pending[len(child[0])], child)
                else:
                    coef[child] = old + d
    return F.of(beta, den), out


def semi_reduce(f, trace=None):
    """Rewrite a multihomogeneous polynomial into its pure-word coefficient
    beta plus a combination of semi-reduced bracket-monomials."""
    F = f.field
    if f.is_zero():
        return F.zero, {}
    f.mdeg()  # raises NotMultihomogeneous on mixed input
    initial = {(w, ()): c for w, c in f.terms.items()}
    return _rewrite(initial, F, Status.SEMI_REDUCED, trace)


def reduce_monomial(b, fieldobj, trace=None):
    """Rewrite a semi-reduced bracket-monomial into reduced ones."""
    if b.status() < Status.SEMI_REDUCED:
        raise NotSemiReduced(b.format())
    beta, out = _rewrite({_internal(b): fieldobj.one}, fieldobj, Status.REDUCED, trace)
    assert fieldobj.is_zero(beta)  # k never decreases, so no pure word appears
    return out


def completely_reduce(b, fieldobj, trace=None):
    """Rewrite a reduced bracket-monomial into completely reduced ones."""
    if b.status() < Status.REDUCED:
        raise NotReduced(b.format())
    beta, out = _rewrite({_internal(b): fieldobj.one}, fieldobj, Status.COMPLETELY_REDUCED, trace)
    assert fieldobj.is_zero(beta)
    return out


class NormalForm(SimpleNamespace):
    """Per-multidegree result: beta * x1^d1...xm^dm + sum alpha_i * f_i,
    with ``terms`` mapping each completely reduced monomial to its alpha_i.
    A namespace: its fields can be assigned, and it is equal to another when
    their fields are."""

    def __init__(self, field, mdeg, beta, terms):
        super().__init__(field=field, mdeg=mdeg, beta=beta, terms=terms)

    def is_zero(self):
        return self.field.is_zero(self.beta) and not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda it: term_order(it[0]))

    def to_poly(self):
        """Reconstruct as an NCPoly (a representative of f mod the ideal)."""
        F = self.field
        terms = F.add_into({}, [(mdeg_word(self.mdeg), self.beta)])
        for mono, c in self.terms.items():
            F.add_into(terms, ((w, F.mul(c, e)) for w, e in mono.expand(F).terms.items()))
        return NCPoly(F, len(self.mdeg), terms)


def normal_form(f, trace=None):
    """Canonical normal form of every multihomogeneous component.

    Returns a mapping multidegree -> NormalForm; the zero polynomial gives
    an empty mapping.  Every output monomial is completely reduced.
    """
    out = {}
    F = f.field
    for delta, comp in components(f.terms, f.nvars).items():
        initial = {(w, ()): c for w, c in comp.items()}
        beta, terms = _rewrite(initial, F, Status.COMPLETELY_REDUCED, trace)
        out[delta] = NormalForm(F, delta, beta, terms)
    return out
