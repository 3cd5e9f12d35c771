"""weylpi: weak polynomial identities for the Weyl algebra A1 over
V = span{x, y}, with exact rewriting to completely reduced bracket-
monomials and multidegree-by-multidegree conjecture verification.

``import weylpi`` runs no submodule.  Each ``weylpi.<module>`` is put into
``sys.modules`` at once, as an ``importlib.util.LazyLoader`` module that
runs its code on the first attribute read from it (``vars`` too), and is
bound here as a package attribute.  Each public name is a descriptor on
the package's class that reads the name from its module on every access
and caches nothing, so a function patched in its module is what
``weylpi.<name>`` returns.  Two threads may load one module at once
safely only from Python 3.13 on; the library is single-threaded.
"""

import importlib.util
import sys
import types

_MODULES = (
    "errors", "fields", "free_algebra", "bracket", "weyl", "evaluation", "linalg",
    "identities", "parser", "rewriter",
)

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("bracket", "BracketMonomial Status enumerate_completely_reduced"),
        ("evaluation", "generic_substitution is_weak_identity substitute_tuple"),
        ("fields", "Field"),
        ("free_algebra", "NCPoly commutator gamma generator_at st3 t4"),
        ("identities", "ConjectureReport identity_basis ideal_span_dimension "
                       "two_variable_certificate verify_conjecture"),
        ("parser", "format_poly parse_poly"),
        ("rewriter", "NormalForm normal_form semi_reduce"),
        ("weyl", "WeylElement commutator_with_y"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def _lazy(name):
    """The submodule ``name``, registered to load on first use.  One already
    in ``sys.modules`` is kept, so that ``importlib.reload(weylpi)`` leaves
    the classes a caller holds valid, as the eager imports did."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _lazy(_name)


class _Export:
    """A public name: on every read, the attribute of its module.  As a
    non-data descriptor it yields to an assignment to ``weylpi.<name>``,
    which the package's ``__dict__`` then holds, as a module attribute."""

    __slots__ = ("module", "name")

    def __init__(self, module, name):
        self.module, self.name = module, name

    def __get__(self, package, owner=None):
        return getattr(self.module, self.name)


# On the class, a name is found by the type lookup; a PEP 562 ``__getattr__``
# runs only after a failed lookup, which on Python 3.11 raises and clears an
# AttributeError: after a full garbage collection that took 4-6 us a name.
sys.modules[__name__].__class__ = type(
    "_Package",
    (types.ModuleType,),
    {name: _Export(globals()[module], name) for name, module in _EXPORTS.items()},
)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
