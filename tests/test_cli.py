import errno
import json
import os
import subprocess
import sys
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from childenv import child_env
from weylpi import cli
from weylpi.errors import ResourceLimit
from weylpi.fields import Field
from weylpi.parser import parse_poly

BASE = [sys.executable, "-m", "weylpi.cli"]


def run(*args, env_extra=None):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=child_env(env_extra)
    )


def test_normalize_basic():
    r = run("normalize", "--expr", "x2*x1")
    assert r.returncode == 0
    assert "mdeg=(1,1) beta=1" in r.stdout
    assert "-1 * [x1,x2]" in r.stdout


def test_normalize_zero_input_is_empty():
    r = run("normalize", "--expr", "[x1,x2] - x1*x2 + x2*x1")
    assert r.returncode == 0
    assert r.stdout.strip() == ""


def test_normalize_trace_and_json():
    r = run("normalize", "--expr", "x3*[x1,x2]", "--trace")
    assert r.returncode == 0
    assert any(line.startswith("trace:") for line in r.stdout.splitlines())
    r = run("normalize", "--expr", "x2*x1", "--json")
    payload = json.loads(r.stdout)
    assert payload == [
        {
            "mdeg": [1, 1],
            "beta": "1",
            "terms": [{"coeff": "-1", "monomial": "[x1,x2]"}],
        }
    ]


def test_normalize_trace_with_json_keeps_stdout_json():
    r = run("normalize", "--expr", "x3*[x1,x2]", "--trace", "--json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload[0]["terms"] == [
        {"coeff": "-1", "monomial": "x1 [x2,x3]"},
        {"coeff": "1", "monomial": "x2 [x1,x3]"},
    ]
    err = r.stderr.splitlines()
    assert err and all(line.startswith("trace: ") for line in err)
    assert "trace: pull-in: pull x3 into [x1,x2] in x3 [x1,x2]" in err


def test_normalize_over_prime_field():
    r = run("normalize", "--field", "fp:5", "--expr", "x1^3 + 4*x1^3")
    assert r.returncode == 0
    assert r.stdout.strip() == ""  # 1 + 4 = 0 mod 5


def test_check_exit_codes():
    assert run("check", "--expr", "x1*[x2,x3] - x2*[x1,x3] + x3*[x1,x2]").returncode == 0
    r = run("check", "--expr", "[x1,x2]")
    assert r.returncode == 1
    assert r.stdout.strip() == "not-identity"


def test_check_decides_a_large_degree_ten_input(monkeypatch, capsys):
    # [x1,x2] evaluates to a central scalar, so [[x1,x2], P] is a weak
    # identity for every P; here P has 9 * 64 words of degree 8
    monkeypatch.setenv("WEYLPI_MAX_DEGREE", "10")
    expr = "[[x1,x2], (x3+x4+x5)^2*(x6+x7)^6]"
    f = parse_poly(expr, Field.rationals(), max_degree=10)
    assert 2000 <= len(f.terms) <= cli.MAX_EVAL_WORDS
    assert {len(w) for w in f.terms} == {10}
    word = (1, 2, 3, 3) + (6,) * 6
    assert f.terms[word] == 1
    assert cli.main(["check", "--expr", expr]) == 0
    # the same words, with the coefficient of one of them raised to 2
    assert cli.main(["check", "--expr", expr + " + x1*x2*x3^2*x6^6"]) == 1
    assert capsys.readouterr().out.split() == ["identity", "not-identity"]


def test_parse_error_exit_code():
    r = run("check", "--expr", "x1 + + *")
    assert r.returncode == 2
    assert "error:" in r.stderr
    for args, message in (
        (("--expr", "1/0"), "not invertible"),
        (("--field", "fp:5", "--expr", "3/5"), "not invertible"),
        (("--expr", "1/x1"), "expected denominator"),
        # only ASCII digits: \d and int() would also read Arabic-Indic ones
        (("--expr", "x\u0662*x\u0661"), "unexpected character"),
        (("--expr", "x1 +\u00a0x2"), "unexpected character"),
        (("--field", "fp:\u0663", "--expr", "x1"), "unknown field spec"),
        # the end of the input is named, at the position where it is met
        (("--expr", ""), "unexpected end of input (at position 0)"),
        (("--expr", "x1 +"), "unexpected end of input (at position 4)"),
        (("--expr", "(x1"), "expected ')', found end of input (at position 3)"),
    ):
        r = run("check", *args)
        assert r.returncode == 2, args
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        assert message in r.stderr


def test_enumerate_counts(capsys):
    r = run("enumerate", "--mdeg", "1,1,1,1")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[-1] == "count=5"
    assert lines[0] == "x1 x2 [x3,x4]"
    assert run("enumerate", "--mdeg", "3").stdout.strip() == "count=0"
    # zero entries add no recursion depth, only the letters present do
    assert cli.main(["enumerate", "--mdeg", "0," * 1500 + "1,1"]) == 0
    assert capsys.readouterr().out == "[x1501,x1502]\ncount=1\n"


def test_idbasis_output():
    r = run("idbasis", "--mdeg", "2,1")
    assert r.returncode == 0
    lines = [l for l in r.stdout.strip().splitlines() if l]
    assert len(lines) == 1
    r = run("idbasis", "--mdeg", "1,1,1")
    assert r.returncode == 0
    assert r.stdout == (
        "x1*x2*x3 - 2*x2*x3*x1 - 2*x3*x1*x2 + 3*x3*x2*x1\n"
        "x1*x3*x2 - x2*x3*x1 - 2*x3*x1*x2 + 2*x3*x2*x1\n"
        "x2*x1*x3 - 2*x2*x3*x1 - x3*x1*x2 + 2*x3*x2*x1\n"
    )


def test_degree_cap_exit_code(tmp_path):
    for command in ("verify", "enumerate", "idbasis"):
        r = run(command, "--mdeg", "2,2", env_extra={"WEYLPI_MAX_DEGREE": "3"})
        assert r.returncode == 3, command
        assert r.stdout == ""
        assert r.stderr == "resource limit: total degree 4 exceeds cap 3\n"
    r = run("normalize", "--expr", "x1^4", env_extra={"WEYLPI_MAX_DEGREE": "3"})
    assert r.returncode == 3
    # refused before the partitions of 1000 are listed or the file is opened
    out = tmp_path / "kept.json"
    out.write_text("kept")
    r = subprocess.run(
        BASE + ["verify", "--degree", "1000", "--json", str(out)],
        capture_output=True, text=True, timeout=10,
        env=child_env({"WEYLPI_MAX_DEGREE": ""}),
    )
    assert r.returncode == 3
    assert r.stderr == f"resource limit: total degree 1000 exceeds cap {cli.DEFAULT_MAX_DEGREE}\n"
    assert out.read_text() == "kept"


def test_degree_cap_applies_before_expansion(monkeypatch, capsys):
    monkeypatch.setenv("WEYLPI_MAX_DEGREE", "8")
    for argv in (
        ["normalize", "--expr", "x1^99999999"],
        ["normalize", "--expr", "(x1+x2)^40"],
        ["check", "--expr", "(x1+x2)^40"],
        ["check", "--expr", "[x1^5,x2^4]"],
        ["enumerate", "--mdeg", "5,4"],
    ):
        assert cli.main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and len(err.splitlines()) == 1
    assert cli.main(["enumerate", "--mdeg", "4,4"]) == 0
    assert cli.main(["check", "--expr", "(x1+x2)^8 - (x2+x1)^8"]) == 0


def test_wide_power_exits_three_before_expanding():
    # under the default degree cap (x1+...+x10)^8 has degree 8 but would
    # expand to 10^8 words
    ten = "+".join(f"x{k}" for k in range(1, 11))
    for expr in (f"({ten})^8", f"({ten})*({ten})*({ten})*({ten})*({ten})*({ten})"):
        r = subprocess.run(
            BASE + ["normalize", "--expr", expr],
            capture_output=True, text=True, timeout=20, env=child_env(),
        )
        assert r.returncode == 3
        assert r.stderr.startswith("resource limit: ") and len(r.stderr.splitlines()) == 1



def test_evaluation_cost_is_bounded_before_evaluating():
    eight = "+".join(f"x{k}" for k in range(1, 9))
    for argv, env in (
        (["check", "--expr", f"({eight})^5*x1*x2*x3"], {}),
        (["check", "--expr", f"({eight})^4*x1*x2*x3*x4"], {}),
        (["check", "--expr", f"({eight})^4*[x1,x2]*[x3,x4]"], {}),
        (["check", "--expr", "(x1+x2+x3+x4+x5)^7*x6*x7*x8"], {"WEYLPI_MAX_DEGREE": "10"}),
        (["idbasis", "--mdeg", "1,1,1,1,1,1,1,1"], {}),
        (["idbasis", "--mdeg", "3,2,1,1,1"], {}),
    ):
        r = subprocess.run(
            BASE + argv, capture_output=True, text=True, timeout=20,
            env=child_env({"WEYLPI_MAX_DEGREE": "", **env}),
        )
        assert r.returncode == 3, argv
        assert r.stdout == ""
        assert r.stderr.startswith("resource limit: ") and len(r.stderr.splitlines()) == 1


def test_evaluation_bound_counts_distinct_words(monkeypatch, capsys):
    monkeypatch.delenv("WEYLPI_MAX_DEGREE", raising=False)
    monkeypatch.setattr(cli, "MAX_EVAL_WORDS", 6)
    assert cli.main(["idbasis", "--mdeg", "1,1,1"]) == 0  # 3! = 6 words
    assert cli.main(["idbasis", "--mdeg", "2,1,1"]) == 3  # 12 words
    monkeypatch.setattr(cli, "MAX_EVAL_WORDS", 2)
    assert cli.main(["check", "--expr", "x1*x2 - x2*x1 + 2*x1*x2 + [x1,x2]"]) == 1
    assert cli.main(["check", "--expr", "x1*x2 - x2*x1 + x1"]) == 3
    assert capsys.readouterr().err.count("resource limit: ") == 2


_TOKENS = [
    "x1", "x2", "x3", "x0", "x1000", "x", "y", "0", "1", "2", "3/2", "1/0", "2/3",
    "+", "-", "*", "^", "^2", "^0", "^99999999", "(", ")", "[", "]", ",", "/", " ",
]
_FIELDS = ["q", "Q", "fp:2", "fp:3", "fp:7", "fp:32003", "fp:4", "fp:1", "fp:0",
           "fp:x", "fp:", "fp:-3", "r", ""]


@st.composite
def _cli_args(draw):
    command = draw(st.sampled_from(["normalize", "check", "enumerate"]))
    if command == "enumerate":
        mdeg = draw(
            st.one_of(
                st.lists(st.integers(-2, 5), max_size=5).map(lambda ds: ",".join(map(str, ds))),
                st.text(max_size=6),
            )
        )
        return [command, f"--mdeg={mdeg}"]
    expr = draw(
        st.one_of(
            st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
            st.text(max_size=10),
        )
    )
    argv = [command, f"--field={draw(st.sampled_from(_FIELDS))}", f"--expr={expr}"]
    if command == "normalize":
        argv += draw(st.sampled_from([[], ["--json"], ["--trace"]]))
    return argv


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_cli_args(), cap=st.sampled_from(["5", "abc", "", "-1"]))
def test_cli_fuzz_exit_codes(argv, cap):
    # every input succeeds or gets its documented exit code; an uncaught
    # exception fails the test with its traceback
    with mock.patch.dict(os.environ, {"WEYLPI_MAX_DEGREE": cap}), \
            mock.patch("sys.stdout"), mock.patch("sys.stderr"):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)


def test_verify_degree_three(tmp_path):
    out = tmp_path / "report.json"
    r = run("verify", "--degree", "3", "--json", str(out))
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[-1] == "summary: 3/3 Verified"
    assert "mdeg=(1,1,1) verdict=Verified" in r.stdout
    payload = json.loads(out.read_text())
    assert len(payload["reports"]) == 3
    for rep in payload["reports"]:
        assert set(rep) == {
            "mdeg",
            "field",
            "n_reduced",
            "eval_rank",
            "dim_id",
            "dim_I",
            "verdict",
            "witness",
            "elapsed_ms",
        }
        assert rep["verdict"] == "Verified"
        assert rep["field"] == "q"


def _strip_elapsed(payload):
    for rep in payload["reports"]:
        rep.pop("elapsed_ms")
    return payload


def test_verify_deterministic_modulo_timing(tmp_path):
    outs = []
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        r = run("verify", "--degree", "4", "--json", str(out))
        assert r.returncode == 0
        texts.append(r.stdout)
        outs.append(_strip_elapsed(json.loads(out.read_text())))
    assert texts[0] == texts[1]
    assert outs[0] == outs[1]


def test_verify_json_to_unwritable_path_fails_before_the_sweep(tmp_path):
    # an empty path names no file: it is refused, not taken as "no --json"
    for path in (str(tmp_path / "missing" / "x.json"), ""):
        r = run("verify", "--degree", "3", "--json", path)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith(f"error: cannot write {path}: ")
        assert len(r.stderr.splitlines()) == 1
    # a sweep over the degree cap is refused before the file is opened
    out = tmp_path / "kept.json"
    out.write_text("kept")
    r = run("verify", "--degree", "4", "--json", str(out), env_extra={"WEYLPI_MAX_DEGREE": "3"})
    assert r.returncode == 3
    assert out.read_text() == "kept"


def test_verify_json_write_failure_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # a write or close that fails after the open gets the open's one-line
    # error and exit 2, before any report is printed
    if os.path.exists("/dev/full"):
        r = run("verify", "--degree", "3", "--json", "/dev/full")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: cannot write /dev/full: No space left on device\n"

    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = str(tmp_path / "r.json")
    monkeypatch.setattr(cli.json, "dump", full)
    assert cli.main(["verify", "--degree", "3", "--json", out]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: No space left on device\n")

    # a resource limit in the sweep keeps its own exit code
    def limit(*args, **kwargs):
        raise ResourceLimit("sweep refused")

    monkeypatch.setattr(cli, "verify_conjecture", limit)
    assert cli.main(["verify", "--degree", "3", "--json", out]) == 3
    assert capsys.readouterr() == ("", "resource limit: sweep refused\n")


def test_one_job_commands_do_not_import_the_process_pool():
    code = (
        "import sys\n"
        "from weylpi import cli\n"
        "assert cli.main(['check', '--expr', '[x1,x2]*[x1,x2]']) == 1\n"
        "assert cli.main(['verify', '--degree', '3']) == 0\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S: no site module, so only weylpi's own imports count
    code = "import sys, weylpi.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    r = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr


def test_verify_has_no_jobs_option():
    r = run("verify", "--degree", "3", "--jobs", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments: --jobs 2" in r.stderr
    assert "Traceback" not in r.stderr


def test_verify_prime_field():
    r = run("verify", "--mdeg", "1,1,1", "--field", "fp:5")
    assert r.returncode == 0
    assert "verdict=Verified" in r.stdout


def test_usage_errors_exit_two():
    for args, env in (
        (("check", "--field", "fp:4", "--expr", "x1"), None),
        (("check", "--field", "fp:x", "--expr", "x1"), None),
        (("verify", "--mdeg", "1,1"), {"WEYLPI_MAX_DEGREE": "abc"}),
        (("verify", "--degree", "0"), {"WEYLPI_MAX_DEGREE": "-5"}),
        (("check", "--expr", "1"), {"WEYLPI_MAX_DEGREE": "-1"}),
        (("verify", "--degree", "-3"), None),
        (("verify", "--mdeg="), None),
        (("check", "--expr=--"), None),
        (("normalize", "--expr=--"), None),
        (("verify", "--mdeg", "\u0661,\u0661"), None),
        (("verify", "--mdeg", "+1,1"), None),
        (("verify", "--degree", "0"), {"WEYLPI_MAX_DEGREE": "\u0669"}),
        (("verify", "--degree", "\u0663"), None),
        (("verify", "--degree", "+3"), None),
        (("verify", "--degree", "1_0"), None),
        (("verify", "--degree", "abc"), None),
        (("verify", "--degree", "0"), {"WEYLPI_MAX_DEGREE": "1_0"}),
        (("verify", "--degree", "0"), {"WEYLPI_MAX_DEGREE": " +9"}),
        (("verify", "--mdeg", "9" * 5000), None),
        (("enumerate", "--mdeg", "2," + "9" * 5000), None),
    ):
        r = run(*args, env_extra=env)
        assert r.returncode == 2, args
        assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
        assert "Traceback" not in r.stderr
    # the cap is read before --degree is checked
    r = run("verify", "--degree", "-3", env_extra={"WEYLPI_MAX_DEGREE": "abc"})
    assert r.stderr == "error: WEYLPI_MAX_DEGREE must be a non-negative integer, got 'abc'\n"


def test_large_prime_fields_are_decided_exactly():
    # 2^61 - 1 is prime; 561 is a Carmichael number; 3 divides 2^61 + 1
    r = run("verify", "--mdeg", "1,1,1", "--field", f"fp:{2**61 - 1}")
    assert r.returncode == 0
    assert "verdict=Verified" in r.stdout
    for p in (561, 2**61 + 1):
        assert run("check", "--field", f"fp:{p}", "--expr", "x1").returncode == 2
