import errno
import hashlib
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from childenv import child_env
from weylpi import cli
from weylpi.errors import ResourceLimit
from weylpi.fields import Field
from weylpi.identities import degree_multidegrees
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


# sha256 of the ``idbasis`` stdout of every partition of degree <= 6 over
# each field; the partitions below degree 3, and (3,), ..., (6,), have no
# weak identities and print nothing.  Any change to a basis, its order or
# its text changes a hash.
_EMPTY = hashlib.sha256(b"").hexdigest()
_IDBASIS_SHA256 = {
    "q": {
        "1": _EMPTY,
        "2": _EMPTY,
        "1,1": _EMPTY,
        "3": _EMPTY,
        "2,1": "4f552fd8b5edeaa2cca3dac057e602bdbd9f2fd2ae975d9d971adeda1105cad3",
        "1,1,1": "858d74e9593e34ae95acec1bb7b3cde3ffa91056f170619eb87780f1aa34fa8e",
        "4": _EMPTY,
        "3,1": "d1204279a54d5cf8a316c2cca8abe30cbc1bc2c218f0f0d14d75f77b5bebb198",
        "2,2": "0c65c0fcf32ee43fd2ccd04d594c41e81f2ecc74deaf50289fe4b9a4e54248a6",
        "2,1,1": "b95c98014a365a47f46db40b0ad42730756890a9a36917e92dc0dbeb7408cbd0",
        "1,1,1,1": "f72ff092ec14ce8ad749f1fb52baf4fc6c13c77c169b9fdf1f0f9d852230f2d2",
        "5": _EMPTY,
        "4,1": "3af601a19656b16be14e596514f0e8564f6395308985e9c32dcd5db7fc1fb1c0",
        "3,2": "912d3b202f32ec21e308797ccf003928144fcc54192024525b2f855f4c489062",
        "3,1,1": "dab2b3820b2d9e09b56a1d64cfbf815798264ae87adf17c7879f305b79ed18fa",
        "2,2,1": "cf9e1e9f2825f20fb0af50fc4d1a265dc23587eb6b55aa6de0e04d18bbbf8af6",
        "2,1,1,1": "aed41af2752f38d4e21d9e3d7e30db698827513d93f9b4927fc1e03ffdd24d2e",
        "1,1,1,1,1": "ad9aba23c9f57e2d87402f3d96d782625fa998986c2903e891a002354a317b8d",
        "6": _EMPTY,
        "5,1": "3e670f1ff4b0452b6ca91e9305fa3cbe738319eca94d864950c0d672d3dfc2c4",
        "4,2": "b2313893629e459a846f06de6534178c1407e876d14e7bad1a0d01eff1fe85f6",
        "4,1,1": "d7dc275841a34bf3baa4b7d5930f4b96f8d35fd91b027b3fa0a6d58e5cc015c9",
        "3,3": "60af1d350292b317f7aeb2027f42282c4cefe283448832a4435adc4e445a584d",
        "3,2,1": "b7bb6a763ee7bc1836f0071d3bf9c9ffe4e5fc39d7c0e61c2266bbc7ba1d4972",
        "3,1,1,1": "563f1b5315bd03fe318b287f8d847e49702e29764073fd405e812a198f93d2fb",
        "2,2,2": "10f5b4d92cef2dfc871f075fe30c85362fd54a982cde9d3073843215ab2ba384",
        "2,2,1,1": "93fd5f3967c92b132b3667112668d94816c1935744c3400ff8fd076efbee2f43",
        "2,1,1,1,1": "c414350362f8a4c4b89a8b08f06d022a8f6c31ed56f3aa0ab5dd56de3966a49d",
        "1,1,1,1,1,1": "a6e010b8f4a0a4cd8d5257c4f8ae3846a0e0ded72d0e04f543c00747f242295c",
    },
    "fp:2": {
        "1": _EMPTY,
        "2": _EMPTY,
        "1,1": _EMPTY,
        "3": _EMPTY,
        "2,1": "e0ef03d8fcbeca35b8bfb241e10cda66a0cb0c4b69df30c50cdb72d87ef97f51",
        "1,1,1": "5767bb78886b6d284b33b75c588097f5b024bf19e641e34cc6aabb5f33f307af",
        "4": _EMPTY,
        "3,1": "4b0f889c27105dccde51ebd577046777aed9833097c287adc6bbdc5ad4b97d27",
        "2,2": "ccd6e5e5ca7667781faa8a57d7f0f319a9484b0378cf8991a2c36686c84a62e8",
        "2,1,1": "23fd83ef37647f4c216cc04145fa62adcffd42f1ae9e72f36061efade1af791e",
        "1,1,1,1": "3f233dc4bc7fb3f4f2992f20250dbef6bdf41c6a7ecd41e81bac6d2fdde43f7f",
        "5": _EMPTY,
        "4,1": "3dd34561684d930c22f2411ebfe7bf56c571e5973349dbe906efce995801768b",
        "3,2": "00dbee298747583dd36e2ec3ba98986a5e5963d8102d45ef947e91bd96338778",
        "3,1,1": "1eca41298d978b88a640db3af9662f2a009ceec6b1d7c0d8c82c2e3fa9d63e14",
        "2,2,1": "bd644fe8277ac72105c6f51dc4d07d4b08fd7e2365a61781d46c76d247bd73ab",
        "2,1,1,1": "b2b8aa2c6289b13fd190599ec2fa72548bd2152695b74a9c1ee7acb392f59154",
        "1,1,1,1,1": "11617674f868ed840a37af04675516119c4e5d295ab55491a4ca85a148a50d87",
        "6": _EMPTY,
        "5,1": "0997b4af0a43e4128d0172dff73d13ab4cdd91137dd509e588041831527b5fdd",
        "4,2": "100b441384c5e1d49a7ff598778ac2b94817643a439ae7cedf7f197b5c872e24",
        "4,1,1": "4e8ace15be8301d4fe5802a0cb104615a1ad6fec7447efe4565d7301221ef805",
        "3,3": "02b47003bb923de42a998e5ab99b0c80e00b85daed919aae75e2835c263088bc",
        "3,2,1": "d36fb87c4e9510673bd89033d9b451f0ec26022c3dbed5aeb93b573c4c77c19e",
        "3,1,1,1": "5f6117196bcb1ec73bd8fce62cf443ed4f013aab3cd1f5cc89c755790bf872b2",
        "2,2,2": "ca0764e1b43517b73e07cf2191087a97c7b0e6452cf8289ce1cbb03777a313fc",
        "2,2,1,1": "8d75adb17bd2ce7c9e78be43dfcd25f1f67deff4c9983af116341f019d72eb4f",
        "2,1,1,1,1": "aba1b70fc337cf7bea4b929fa6748363f7f49fc40c25800351186be751dd2a9f",
        "1,1,1,1,1,1": "35ad338d5dabd7a7037620626992e936fa570334165a660d4e62f48c66d4d78d",
    },
    "fp:3": {
        "1": _EMPTY,
        "2": _EMPTY,
        "1,1": _EMPTY,
        "3": _EMPTY,
        "2,1": "5c45176d4634ed9e4fecb8d082124c648c1239cb3be6511d381d4b07d9521004",
        "1,1,1": "0432d3a40fbb4407e92feec849a610c401be76990b651606c8fa13715beee3f3",
        "4": _EMPTY,
        "3,1": "73ae7d9af32d53082df763ea887d9cfbc8e3562eb2bda207f6229acdf7b0fc53",
        "2,2": "2a33f49c827c16d390088f99a7debc46e11ebed55e2822c68eb97c9b8c1ac7ff",
        "2,1,1": "72fc3531ee28b39574ac3fd2830d1f83c6dfe90c1f521425c0ad3da2a307f690",
        "1,1,1,1": "73a4e0ba35e29c9d65af515d4e57e02b78cdf7f139cf83df9e644d12f7a75f6f",
        "5": _EMPTY,
        "4,1": "86a680f938f1e175f3e95a615933629b49d8b5a6e8d508eff324d0b735aa6726",
        "3,2": "41318af1346d32a93451703d9d8b9195c4ab4a9b25a481c7b4899b85ddab5f94",
        "3,1,1": "da87a5d817def24f07904970feec57807aceb222138e2e2f2e3538543e87371d",
        "2,2,1": "2bad1b15fce10ba3fcdb695aa8ca77e6c4e7a64f96d646372bb2eed78c8a18c7",
        "2,1,1,1": "b899e41f6e051b1b84f14510ac8cc632d3d8caa8f796602806cd02630d78da1c",
        "1,1,1,1,1": "5ba715d1c076c116335141d80cb35c2d2279fdc11f6e11002565787ff3121ffd",
        "6": _EMPTY,
        "5,1": "5db090ad047cf9eef42b9b228d4971039b598c050cbf44f2d359452903aff93f",
        "4,2": "ef4dfee92ed5cf7d77de53bec1f62ad5bfbf698955a7f7ee87265cb78a6c9bd0",
        "4,1,1": "f951767f1138209ef67a77ba0072506d91a56d8c494418d6ec0006ee40f33da7",
        "3,3": "eeeb151246227eab2289ce70280e151bd8e1facac59ad8e59e05beb3636acf0f",
        "3,2,1": "dacbcbd732961f806f9721e7ee78a43b77c604170b92e393654ac89ada9a8d99",
        "3,1,1,1": "a3befd390011e031049cb1f6a5a3f387a3632c823641438b0b824be0158f2ee5",
        "2,2,2": "bc2b6a49a7f554c4bd47df2d4efb79a24b35b973298eef6d06968106c11311e0",
        "2,2,1,1": "cc3356d1cef44001df6132bb18db69a1b2a733071773c8d664afda31dd4dae3b",
        "2,1,1,1,1": "da2fdd920791fb244b8545d86016a6bf92f75b1f5326bcb3823cc746daa91c81",
        "1,1,1,1,1,1": "3dee79705d5565c3bee7a0b06123d443a6ccf8254ca658f2d3188b9a345c130e",
    },
    "fp:32003": {
        "1": _EMPTY,
        "2": _EMPTY,
        "1,1": _EMPTY,
        "3": _EMPTY,
        "2,1": "b3823867d642fede7c6659c5afac4dff69263b2877715dd461e6a257e3ee0bf3",
        "1,1,1": "a30ea0c013b4eacd411466073bd0d43a19d7e5158741d83596516d5f1f90a25a",
        "4": _EMPTY,
        "3,1": "af14ce55f4e974409c272c0340db01b371030935aed0fcc86899118c3ef4afde",
        "2,2": "73013720f9a91ff2318349c9950e2b0ae127727c616cba03ad75d26b8d3636e9",
        "2,1,1": "3b86e9897f37ef5470f32231d5c358cd74223176db732b72743e05f530f2c6f7",
        "1,1,1,1": "e081f333d982f4909f619b75acd7b5cbe0d2f0e21cf98e1209a8b6823a5e9efb",
        "5": _EMPTY,
        "4,1": "3b582cb2537da824cde986ba110d6f9398a5a565264fe738254bc09732405709",
        "3,2": "e519f4f8deb4c4e28b25af57d4fbfad0cd424dea4075e1c694d33a6e3d36e0bf",
        "3,1,1": "00e74a4d3d63c863a182bd82e143021b0e285284701a92f4386b526c69b22950",
        "2,2,1": "2d207987bb32467213c46dc04fc96b39fd4b122143f300e7712d4647c08d303a",
        "2,1,1,1": "020f7a47f1e1718463bf5776d662714685a4402981fba010593f5d772d81c85d",
        "1,1,1,1,1": "27fd7b27b18a076b60557eb800ac7b0d842e27e623950302cf6363dd93a9433a",
        "6": _EMPTY,
        "5,1": "45e085c9b8a23f223abb204c474497d182495887defff9c9826e9a5874f8aa0e",
        "4,2": "a7a020b6807074ccdd85679d974771bec776596f9b822cc356d9d8c248f9f212",
        "4,1,1": "00111fc84e8d619cd07945b24b3cc4d4208a6314fd3a9ce2a8307d0ea5278427",
        "3,3": "4cc42009640acfe020ea8530b98e0bdb09cab079a9fb0aa7cc5b313ccf5b22d7",
        "3,2,1": "252a499705876914d6c053a4020e24864dd8df335389fb1a70a9e2ce6164797d",
        "3,1,1,1": "20d321656eb683dad2c0be4f2474e7cbf4a031953d3da9ea92cc8a12c546fa67",
        "2,2,2": "d58f014455529346127f3883ba998e0307b9c9f2d4a7d47ee32f82bfc27d2814",
        "2,2,1,1": "50fe8a47c756028aaf478a44807698dcfe4816948ca2ec8140d1bc2bfb95750a",
        "2,1,1,1,1": "24740d0da5db65e7764108f8b74333553d3123a8c184dc6b89991f099e604eb2",
        "1,1,1,1,1,1": "f5600a5aacaea6bb155d611dd329ddcc3e1a12ef8bbcf332c9c9d90c1feee7ce",
    },
}


@pytest.mark.parametrize("field", sorted(_IDBASIS_SHA256))
def test_idbasis_output_is_pinned(field, capsys):
    got = {}
    for n in range(1, 7):
        for delta in degree_multidegrees(n):
            mdeg = ",".join(map(str, delta))
            assert cli.main(["idbasis", "--field", field, "--mdeg", mdeg]) == 0
            got[mdeg] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == _IDBASIS_SHA256[field]


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

    monkeypatch.setattr(cli.identities, "verify_conjecture", limit)
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


@pytest.mark.parametrize(
    "mdeg, pos",
    [("", 0), ("x", 0), ("2,x", 2), ("1,,1", 2), ("1,2,-1", 4), ("1,2,", 4), (" 1 ,+2", 4)],
)
def test_malformed_mdeg_reports_the_offset_of_its_first_bad_part(capsys, mdeg, pos):
    assert cli.main(["verify", "--mdeg", mdeg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: malformed multidegree {mdeg!r} (at position {pos})\n"


def test_large_prime_fields_are_decided_exactly():
    # 2^61 - 1 is prime; 561 is a Carmichael number; 3 divides 2^61 + 1
    r = run("verify", "--mdeg", "1,1,1", "--field", f"fp:{2**61 - 1}")
    assert r.returncode == 0
    assert "verdict=Verified" in r.stdout
    for p in (561, 2**61 + 1):
        assert run("check", "--field", f"fp:{p}", "--expr", "x1").returncode == 2
