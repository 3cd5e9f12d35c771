import json
import subprocess
import sys
import types

import weylpi
from childenv import child_env

# A fresh interpreter reports which weylpi submodules have run: a module
# registered to load on first use keeps its lazy class until then.  Only
# ``type`` is read, as any attribute (``__class__``, ``vars``) loads it.
LOADED = (
    "import json, sys, types\n"
    "print(json.dumps(sorted(n.partition('.')[2] for n, m in list(sys.modules.items())\n"
    "      if n.startswith('weylpi.') and type(m) is types.ModuleType)))\n"
)
SUBMODULES = {
    "errors", "fields", "free_algebra", "bracket", "weyl", "evaluation", "linalg",
    "identities", "parser", "rewriter",
}


def run_fresh(code):
    """Run ``code`` in a new interpreter; the submodules it loaded."""
    r = subprocess.run(
        [sys.executable, "-c", code + LOADED], capture_output=True, text=True, env=child_env()
    )
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1]))


def test_all_names_resolve_and_are_unique():
    assert len(set(weylpi.__all__)) == len(weylpi.__all__)
    for name in weylpi.__all__:
        assert getattr(weylpi, name, None) is not None, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from weylpi import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(weylpi.__all__)
    # the public names resolve through the export table, which __all__
    # lists exactly, and the package binds no other public name but modules
    assert set(weylpi._EXPORTS) == set(weylpi.__all__)
    assert set(weylpi.__all__) <= set(dir(weylpi))
    public = {
        name
        for name, value in vars(weylpi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(weylpi.__all__)


def test_assignment_to_a_public_name_shadows_it():
    weylpi.normal_form = sentinel = object()
    try:
        assert weylpi.normal_form is sentinel
    finally:
        del weylpi.normal_form
    assert weylpi.normal_form is weylpi.rewriter.normal_form


def test_import_runs_no_submodule():
    registered = (
        "import sys, weylpi\n"
        "assert {n for n in sys.modules if n.startswith('weylpi.')} == "
        "{'weylpi.' + m for m in weylpi._MODULES}\n"
    )
    assert run_fresh(registered) == set()
    assert set(weylpi._MODULES) == SUBMODULES


def test_check_loads_parser_and_evaluation_only():
    code = (
        "import weylpi\n"
        "F = weylpi.Field(32003)\n"
        "assert weylpi.is_weak_identity(weylpi.parse_poly('[[x1,x2],x3]', F))\n"
    )
    assert run_fresh(code) == {"errors", "fields", "free_algebra", "parser", "evaluation"}


def test_normal_form_loads_no_evaluation_or_elimination():
    code = (
        "import weylpi\n"
        "weylpi.normal_form(weylpi.parse_poly('x2*x1*x3', weylpi.Field(0)))\n"
    )
    loaded = run_fresh(code)
    assert "rewriter" in loaded
    assert not loaded & {"identities", "linalg", "evaluation", "weyl"}


def test_cli_check_loads_no_arithmetic_it_does_not_use():
    code = (
        "from weylpi import cli\n"
        "assert cli.main(['check', '--expr', '[[x1,x2],x3]']) == 0\n"
    )
    loaded = run_fresh(code)
    assert "evaluation" in loaded
    assert not loaded & {"identities", "linalg", "rewriter", "bracket", "weyl"}


def test_patches_made_through_vars_reach_the_package():
    # what a tracer does: read vars() of every weylpi module, which loads
    # it, and replace a function in its module; the package's name follows
    code = (
        "import sys, types, weylpi\n"
        "for name, m in list(sys.modules.items()):\n"
        "    if name.startswith('weylpi.'):\n"
        "        vars(m)\n"
        "assert all(type(sys.modules['weylpi.' + m]) is types.ModuleType for m in weylpi._MODULES)\n"
        "rewriter = sys.modules['weylpi.rewriter']\n"
        "original = weylpi.normal_form\n"
        "rewriter.normal_form = patched = lambda f, trace=None: 'patched'\n"
        "assert weylpi.normal_form is patched and weylpi.normal_form(None) == 'patched'\n"
        "rewriter.normal_form = original\n"
        "assert weylpi.normal_form is original\n"
    )
    assert run_fresh(code) == SUBMODULES


def test_assignment_before_the_load_survives_it():
    code = (
        "import types, weylpi\n"
        "from weylpi.errors import ResourceLimit\n"
        "weylpi.rewriter._MAX_STEPS = 3\n"
        "assert type(weylpi.rewriter) is not types.ModuleType\n"
        "f = weylpi.parse_poly('x3*x2*x1*x4', weylpi.Field(0))\n"
        "try:\n"
        "    weylpi.normal_form(f)\n"
        "except ResourceLimit as exc:\n"
        "    assert 'step cap of 3' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('the step cap set before the load was lost')\n"
        "assert weylpi.rewriter._MAX_STEPS == 3\n"
    )
    assert "rewriter" in run_fresh(code)


def test_reload_keeps_the_loaded_modules_and_their_classes():
    # a submodule already in sys.modules is kept, so what a caller holds
    # from before the reload stays valid
    code = (
        "import importlib, weylpi\n"
        "F = weylpi.Field(7)\n"
        "fields = weylpi.fields\n"
        "importlib.reload(weylpi)\n"
        "assert weylpi.fields is fields\n"
        "assert isinstance(F, weylpi.Field)\n"
        "assert weylpi.Field is weylpi.fields.Field\n"
        "assert weylpi.is_weak_identity(weylpi.parse_poly('[[x1,x2],x3]', F))\n"
    )
    assert {"fields", "parser", "evaluation"} <= run_fresh(code)
