"""Bracket-monomials, their reduction-status hierarchy, weights and the
enumeration of completely reduced monomials per multidegree.

A bracket-monomial is x_{t1}...x_{tl} [x_{r1},x_{s1}]...[x_{rk},x_{sk}]
with l >= 0, k >= 1 and r_i < s_i throughout.  Canonical storage sorts the
prefix ascending and the brackets by (s, r); bracket order is immaterial
modulo the ideal of known identities, so any fixed convention is sound.
"""

import enum
from dataclasses import dataclass

from .free_algebra import NCPoly


class Status(enum.IntEnum):
    NONE = 0
    SEMI_REDUCED = 1
    REDUCED = 2
    COMPLETELY_REDUCED = 3


def bracket_sort_key(bracket):
    r, s = bracket
    return (s, r)


def format_key(prefix, brackets):
    """Text of x_{t1}...x_{tl} [x_{r1},x_{s1}]..., e.g. ``x1 x2 [x1,x3]``."""
    parts = [f"x{t}" for t in prefix]
    parts.extend(f"[x{r},x{s}]" for r, s in brackets)
    return " ".join(parts)


@dataclass(frozen=True)
class BracketMonomial:
    prefix: tuple
    brackets: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "brackets", tuple(tuple(b) for b in self.brackets))
        if not self.brackets:
            raise ValueError("a bracket-monomial needs at least one bracket")
        for r, s in self.brackets:
            if not (1 <= r < s):
                raise ValueError(f"bracket ({r},{s}) needs 1 <= r < s")
        if any(t < 1 for t in self.prefix):
            raise ValueError("prefix letters are 1-based")

    # -- grading and status ------------------------------------------------

    def letters(self):
        out = list(self.prefix)
        for r, s in self.brackets:
            out.extend((r, s))
        return out

    def mdeg(self, nvars=None):
        letters = self.letters()
        if nvars is None:
            nvars = max(letters)
        counts = [0] * nvars
        for l in letters:
            counts[l - 1] += 1
        return tuple(counts)

    def total_degree(self):
        return len(self.prefix) + 2 * len(self.brackets)

    def status(self):
        t, br = self.prefix, self.brackets
        if any(t[i] > t[i + 1] for i in range(len(t) - 1)):
            return Status.NONE
        s_seq = [s for _, s in br]
        if any(s_seq[i] > s_seq[i + 1] for i in range(len(s_seq) - 1)):
            return Status.NONE
        if t and t[-1] > s_seq[0]:
            return Status.SEMI_REDUCED
        for j, (rj, sj) in enumerate(br):
            for i, (ri, si) in enumerate(br):
                if i != j and rj < ri and si < sj:
                    return Status.REDUCED
        return Status.COMPLETELY_REDUCED

    # -- weights -----------------------------------------------------------

    def monomial_weight(self):
        if not self.prefix:
            return (0,)
        return tuple(sorted(self.prefix, reverse=True))

    def bracket_weight(self):
        return tuple(sorted((s - r for r, s in self.brackets), reverse=True))

    # -- expansion ---------------------------------------------------------

    def expand(self, field):
        """The 2^k-term free-algebra polynomial with coefficients +-1."""
        words = [(self.prefix, field.one)]
        for r, s in self.brackets:
            nxt = []
            for w, c in words:
                nxt.append((w + (r, s), c))
                nxt.append((w + (s, r), field.neg(c)))
            words = nxt
        nvars = max(self.letters())
        return NCPoly(field, nvars, dict(words))

    def format(self):
        return format_key(self.prefix, self.brackets)

    def __repr__(self):
        return f"BracketMonomial({self.format()})"


def weight_less(a, b):
    """Strict comparison of weights: pad with zeros, then lexicographic."""
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return a < b


def _bracket_choices(counts):
    """All nondecreasing (by (s, r)) bracket multisets drawing from the
    per-variable letter budget ``counts`` (1-based dict)."""
    letters = sorted(counts)
    pairs = sorted(
        ((r, s) for s in letters for r in letters if r < s), key=bracket_sort_key
    )

    def rec(start, remaining, chosen):
        yield tuple(chosen)
        for idx in range(start, len(pairs)):
            r, s = pairs[idx]
            if remaining.get(r, 0) >= 1 and remaining.get(s, 0) >= 1:
                remaining[r] -= 1
                remaining[s] -= 1
                chosen.append((r, s))
                yield from rec(idx, remaining, chosen)
                chosen.pop()
                remaining[r] += 1
                remaining[s] += 1

    yield from rec(0, dict(counts), [])


def enumerate_completely_reduced(delta):
    """All completely reduced bracket-monomials with letter multiset delta.

    Deterministic output order: by bracket count, then prefix, then
    brackets.  Degrees below 2 admit no bracket and yield the empty list.
    """
    delta = tuple(delta)
    total = sum(delta)
    out = []
    if total < 2:
        return out
    counts = {i + 1: d for i, d in enumerate(delta) if d > 0}
    for brackets in _bracket_choices(counts):
        if not brackets:
            continue
        used = {}
        for r, s in brackets:
            used[r] = used.get(r, 0) + 1
            used[s] = used.get(s, 0) + 1
        prefix = []
        for letter in sorted(counts):
            prefix.extend([letter] * (counts[letter] - used.get(letter, 0)))
        mono = BracketMonomial(tuple(prefix), brackets)
        if mono.status() == Status.COMPLETELY_REDUCED:
            out.append(mono)
    out.sort(key=lambda m: (len(m.brackets), m.prefix, m.brackets))
    return out
