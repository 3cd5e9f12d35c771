"""Command-line front end.

Subcommands: normalize, check, enumerate, idbasis, verify.
Exit codes: 0 success, 1 negative verdict, 2 parse/usage error,
3 resource limit.

The library modules are imported as modules and their functions read at
use, so that a command loads only the modules it calls (``weylpi``
registers its submodules to load on first use): ``check`` loads errors,
fields, free_algebra, parser and evaluation, never the Weyl arithmetic,
the eliminations or the rewriter; ``verify`` loads errors, fields,
bracket and identities, never the free algebra, the evaluation or the
eliminations; ``idbasis`` loads no bracket and no rewriter; and
``enumerate`` loads errors and bracket alone.  Over F_p no command
imports ``fractions``: the first ``Field(0)`` does (``fields``).
"""

import argparse
import contextlib
import json
import os
import sys

from . import bracket, evaluation, fields, identities, parser, rewriter
from .errors import ParseError, ResourceLimit, UsageError

# The most words ``check`` and ``idbasis`` evaluate; the elimination of
# ``idbasis`` grows fastest.  On a shared 2-vCPU VM, at this limit: ``check``
# refutes a sum with a nonzero coefficient sum in some multidegree in under
# 0.01 s, without evaluating it, and evaluates 2520 words of degree 8 in
# 0.03-0.2 s and of degree 10 in 0.1-0.45 s, random letters slowest
# (parsing takes 0.04-0.07 s more); the slowest accepted ``idbasis`` slices,
# (2,1,1,1,1,1) and (2,2,2,2), take 0.2 s in ``identity_basis`` and
# 0.32-0.39 s of process wall time over Q, printing ~2500 basis vectors
# (0.27-0.34 s over F_32003, 0.12-0.15 s over F_2).  Above it, in the
# library over Q, (3,2,1,1,1), 3360 words, takes 0.3 s and (2,2,1,1,1,1),
# 10080 words, 1.5 s.
MAX_EVAL_WORDS = 2520

# The total-degree cap; ``WEYLPI_MAX_DEGREE`` overrides it.  The library
# applies none, but ``parse_poly`` takes it as ``max_degree``.
DEFAULT_MAX_DEGREE = 8


def _cap_words(count):
    if count > MAX_EVAL_WORDS:
        raise ResourceLimit(f"{count} words to evaluate exceed the limit of {MAX_EVAL_WORDS}")


def _capped(delta, cap):
    """``delta``, or ``ResourceLimit`` if its total degree exceeds ``cap``."""
    if sum(delta) > cap:
        raise ResourceLimit(f"total degree {sum(delta)} exceeds cap {cap}")
    return delta


def _natural(text):
    """The value of ``text`` if it is ASCII digits, with whitespace around
    them allowed, at most 4300 of them (``int``'s default limit); else None."""
    digits = text.strip()
    if text.isascii() and digits.isdigit() and len(digits) <= 4300:
        return int(digits)
    return None


def _max_degree():
    raw = os.environ.get("WEYLPI_MAX_DEGREE")
    if not raw:
        return DEFAULT_MAX_DEGREE
    cap = _natural(raw)
    if cap is None:
        raise UsageError(f"WEYLPI_MAX_DEGREE must be a non-negative integer, got {raw!r}")
    return cap


def _field(text):
    try:
        return fields.Field.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_expr(args):
    """The field and the parsed ``--expr`` of ``normalize`` or ``check``."""
    fieldobj = _field(args.field)
    # argparse reads `--expr=--` as an empty list of values: no expression
    expr = args.expr if isinstance(args.expr, str) else ""
    return fieldobj, parser.parse_poly(expr, fieldobj, max_degree=_max_degree())


def _parse_mdeg(text):
    parts = []
    pos = 0  # the offset of the part being read
    for part in text.split(","):
        if (n := _natural(part)) is None:
            raise ParseError(f"malformed multidegree {text!r}", pos)
        parts.append(n)
        pos += len(part) + 1
    return tuple(parts)


def cmd_normalize(args):
    fieldobj, f = _parse_expr(args)
    trace = [] if args.trace else None
    forms = rewriter.normal_form(f, trace=trace)
    if trace:
        # with --json, stdout carries the JSON document alone
        out = sys.stderr if args.json else sys.stdout
        for line in trace:
            print(f"trace: {line}", file=out)
    if args.json:
        payload = []
        for delta in sorted(forms):
            nf = forms[delta]
            payload.append(
                {
                    "mdeg": list(delta),
                    "beta": fieldobj.format(nf.beta),
                    "terms": [
                        {"coeff": fieldobj.format(c), "monomial": mono.format()}
                        for mono, c in nf.sorted_terms()
                    ],
                }
            )
        print(json.dumps(payload, sort_keys=True))
        return 0
    for delta in sorted(forms):
        nf = forms[delta]
        mdeg_txt = ",".join(str(d) for d in delta)
        print(f"mdeg=({mdeg_txt}) beta={fieldobj.format(nf.beta)}")
        for mono, c in nf.sorted_terms():
            print(f"  {fieldobj.format(c)} * {mono.format()}")
    return 0


def cmd_check(args):
    fieldobj, f = _parse_expr(args)
    _cap_words(len(f.terms))
    if evaluation.is_weak_identity(f):
        print("identity")
        return 0
    print("not-identity")
    return 1


def cmd_enumerate(args):
    delta = _capped(_parse_mdeg(args.mdeg), _max_degree())
    monos = bracket.enumerate_completely_reduced(delta)
    for mono in monos:
        print(mono.format())
    print(f"count={len(monos)}")
    return 0


def cmd_idbasis(args):
    fieldobj = _field(args.field)
    delta = _capped(_parse_mdeg(args.mdeg), _max_degree())
    _cap_words(identities.space_dimension(delta))
    for f in identities.identity_basis(delta, fieldobj):
        print(parser.format_poly(f))
    return 0


def cmd_verify(args):
    fieldobj = _field(args.field)
    cap = _max_degree()
    if args.mdeg is not None:
        deltas = [_capped(_parse_mdeg(args.mdeg), cap)]
    elif (degree := _natural(args.degree)) is None:
        raise UsageError(f"--degree must be a non-negative integer, got {args.degree!r}")
    else:
        _capped((degree,), cap)  # before the partitions are listed
        deltas = identities.degree_multidegrees(degree)
    # opened before the sweep, so that an unwritable path fails at once;
    # a full device may fail the write or the close
    try:
        with open(args.json, "w") if args.json is not None else contextlib.nullcontext() as fh:
            reports = [identities.verify_conjecture(d, fieldobj).to_dict() for d in deltas]
            if fh:
                json.dump({"reports": reports}, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.json}: {exc.strerror}") from None
    for rep in reports:
        print(
            "mdeg=({}) verdict={} n_reduced={} eval_rank={} dim_id={} dim_I={}".format(
                ",".join(str(d) for d in rep["mdeg"]),
                rep["verdict"],
                rep["n_reduced"],
                rep["eval_rank"],
                rep["dim_id"],
                rep["dim_I"],
            )
        )
    n_ok = sum(1 for rep in reports if rep["verdict"] == "Verified")
    print(f"summary: {n_ok}/{len(reports)} Verified")
    return 0 if n_ok == len(reports) else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="weylpi")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="completely reduced normal form")
    p.add_argument("--field", default="q")
    p.add_argument("--expr", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("check", help="weak-identity membership test")
    p.add_argument("--field", default="q")
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="completely reduced monomials of a multidegree")
    p.add_argument("--mdeg", required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("idbasis", help="basis of the weak-identity space")
    p.add_argument("--field", default="q")
    p.add_argument("--mdeg", required=True)
    p.set_defaults(func=cmd_idbasis)

    p = sub.add_parser("verify", help="conjecture verification per multidegree")
    p.add_argument("--field", default="q")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree")
    group.add_argument("--mdeg")
    p.add_argument("--json")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
