"""Reduction of multihomogeneous polynomials to completely reduced form.

Every multihomogeneous f is rewritten, modulo the ideal generated by
Gamma_3, St_3 and T_4, into

    beta * x1^d1 ... xm^dm  +  sum_i alpha_i * (completely reduced monomial)

using three rewrite rules:

  (swap)     f1 xj xi f2      ->  f1 xi xj f2 - f1 f2 [xi,xj]      (i < j)
  (pull-in)  x_t [x_r, x_s]   ->  x_s [x_r, x_t] - x_r [x_s, x_t]  (t > s)
  (unnest)   [a2,a3][a1,a4]   -> -[a1,a2][a3,a4] + [a1,a3][a2,a4]  (a1<a2<a3<a4)

The rule that fires on a term is the one for its leftmost violation.  A
term with n prefix letters is held as one flat tuple of ints: the prefix,
then its brackets in ascending order, a bracket [x_r, x_s] coded as the int
s << w | r.  The width w is the bit length of the largest letter of the
input; no rule brings in a new letter, so w is fixed for the whole call,
and the numeric order of the codes is the order of the (s, r) pairs.  The
pending terms are kept per prefix length n, so n is not stored in the key,
and for equal n the order of the flat tuples is (prefix, brackets) order.
A pure word is its own key.  Only a terminal key is decoded, into a
``BracketMonomial``; a trace line decodes its key to print [x_r,x_s].

Each rule sends a key to two keys that are strictly smaller in the order
(len(prefix), prefix, bracket codes):

  swap      the first child keeps the prefix length and is smaller where
            xj xi became xi xj; the second child's prefix is two letters
            shorter.
  pull-in   fires on a sorted prefix only, and puts x_s or x_r, both
            smaller than x_t, in place of its last and largest letter x_t.
  unnest    keeps the prefix; the least changed code of each child is new
            and smaller than both codes it replaces, since the pairs
            (s, r) obey (a2,a1) < (a3,a2) and (a3,a1) < (a3,a2).

So rewriting terminates, and one ordered pass rewrites each key once.  The
pending keys wait, per prefix length, in a dict of merged coefficients and
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

from .bracket import BracketMonomial, Status, format_key, term_order
from .errors import ResourceLimit
from .free_algebra import NCPoly, components, mdeg_word

_MAX_STEPS = 10_000_000


def _decode(key, n, width):
    """The (prefix, brackets) tuple of a flat key with ``n`` prefix letters,
    each bracket turned back to an (r, s) pair."""
    mask = (1 << width) - 1
    return key[:n], tuple((code & mask, code >> width) for code in key[n:])


def _successors(key, n, width, target, trace):
    """(first child, second child, sign of the first, prefix length of the
    second) of the rule that fires on a flat key with ``n`` prefix letters,
    or () if the key is terminal at ``target`` status.  The first child has
    ``n`` prefix letters and the second child's sign is minus the first's.
    A firing rule appends its line to ``trace`` unless that is None."""
    for i in range(n - 1):
        a, b = key[i], key[i + 1]
        if a > b:  # swap: the new bracket [x_b, x_a]
            if trace is not None:
                trace.append(f"swap: x{a} x{b} in {format_key(*_decode(key, n, width))}")
            code = a << width | b
            j = bisect_right(key, code, n)
            return (
                key[:i] + (b, a) + key[i + 2 :],
                key[:i] + key[i + 2 : j] + (code,) + key[j:],
                1,
                n - 2,
            )
    if len(key) == n:
        return ()
    if target >= Status.REDUCED and n and key[n - 1] > key[n] >> width:
        t_l = key[n - 1]
        s1, r1 = key[n] >> width, key[n] & ((1 << width) - 1)
        if trace is not None:
            trace.append(
                f"pull-in: pull x{t_l} into [x{r1},x{s1}] in {format_key(*_decode(key, n, width))}"
            )
        head, rest = key[: n - 1], key[n + 1 :]
        code1, code2 = t_l << width | r1, t_l << width | s1
        i, j = bisect_right(rest, code1), bisect_right(rest, code2)
        return (
            head + (s1,) + rest[:i] + (code1,) + rest[i:],
            head + (r1,) + rest[:j] + (code2,) + rest[j:],
            1,
            n,
        )
    if target >= Status.COMPLETELY_REDUCED:
        # in code order a later bracket v nests an earlier u iff r_v < r_u
        mask = (1 << width) - 1
        for u in range(n, len(key)):
            a3, a2 = key[u] >> width, key[u] & mask
            for v in range(u + 1, len(key)):
                a1 = key[v] & mask
                if a1 < a2:
                    a4 = key[v] >> width
                    if trace is not None:
                        trace.append(
                            f"unnest: [x{a2},x{a3}][x{a1},x{a4}] in "
                            f"{format_key(*_decode(key, n, width))}"
                        )
                    prefix = key[:n]
                    rest = key[n:u] + key[u + 1 : v] + key[v + 1 :]
                    return (
                        prefix + tuple(sorted(rest + (a2 << width | a1, a4 << width | a3))),
                        prefix + tuple(sorted(rest + (a3 << width | a1, a4 << width | a2))),
                        -1,
                        n,
                    )
    return ()


def _rewrite(words, delta, fieldobj, target, trace):
    """Rewrite a dict of words of multidegree ``delta``, at least one of
    them with a nonzero coefficient, up to ``target`` status; each word is
    its own flat key.  Returns (beta, out) where beta collects bracket-free
    sorted words and ``out`` maps canonical ``BracketMonomial`` keys to
    nonzero coefficients.
    """
    F = fieldobj
    n = sum(delta)
    width = max((l for l, d in enumerate(delta, start=1) if d), default=0).bit_length()
    # coefs[m]: each pending key's merged integer coefficient; pending[m]:
    # the pending keys, ascending; both for the keys with m prefix letters
    den, coef = F.integral(words)
    coefs = [{} for _ in range(n)] + [coef]
    pending = [[] for _ in range(n)] + [sorted(coef)]

    p = F.p
    beta = 0
    out = {}
    steps = 0
    for m in range(n, -1, -1):
        todo, coef = pending[m], coefs[m]
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
            children = _successors(key, m, width, target, trace)
            if not children:
                if len(key) > m:
                    out[BracketMonomial._make(_decode(key, m, width))] = F.of(c, den)
                else:
                    beta += c
                continue
            first, second, sign, m2 = children
            c *= sign
            old = coef.get(first)
            if old is None:
                coef[first] = c
                insort(todo, first)
            else:
                coef[first] = old + c
            table = coefs[m2]
            old = table.get(second)
            if old is None:
                table[second] = -c
                insort(pending[m2], second)
            else:
                table[second] = old - c
    return F.of(beta, den), out


def semi_reduce(f, trace=None):
    """Rewrite a multihomogeneous polynomial into its pure-word coefficient
    beta plus a combination of semi-reduced bracket-monomials."""
    F = f.field
    if f.is_zero():
        return F.zero, {}
    delta = f.mdeg()  # raises NotMultihomogeneous on mixed input
    return _rewrite(f.terms, delta, F, Status.SEMI_REDUCED, trace)


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
        beta, terms = _rewrite(comp, delta, F, Status.COMPLETELY_REDUCED, trace)
        out[delta] = NormalForm(F, delta, beta, terms)
    return out
