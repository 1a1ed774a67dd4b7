"""The console script: the package's JSON on stdout, error types as exit codes."""

import hashlib
import json
import os
import subprocess
import sys

from click.testing import CliRunner

from minwsuper import cli
from minwsuper.cartanw import build_cartan_w
from minwsuper.errors import ConsistencyError
from minwsuper.grading import grade
from minwsuper.superalgebra import build_algebra
from minwsuper.wgen import verify_relations


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def run(*args):
    try:
        # click before 8.2 mixes stderr into stdout unless told not to
        runner = CliRunner(mix_stderr=False)
    except TypeError:
        runner = CliRunner()
    return runner.invoke(cli.main, list(args))


def test_commands_print_the_json():
    g = build_algebra("osp:1|2")
    gr = grade(g)
    wants = {
        "algebra": g.to_json_dict(),
        "grading": gr.to_json_dict(),
        "relations": verify_relations(gr),
        "cartan": build_cartan_w(gr).as_json_dict(),
    }
    for command, want in wants.items():
        result = run(command, "osp:1|2")
        assert result.exit_code == 0, (command, result.stderr)
        assert json.loads(result.stdout) == json.loads(json.dumps(want))
    assert wants["relations"]["ok"]


# Regression freezes, not independent truths: sha256 digests of
# json.dumps(obj, sort_keys=True) of the four objects the commands print,
# the realization, the minimal grading, the relation report and the Cartan
# subquotient, on rows of both parity types
FROZEN_OUTPUT_DIGESTS = {
    ("osp:1|2", "algebra"):
        "fdf043efa7d9e73ac35b3b68e386dfba77cab370faf5ad5a51f08ae49b861da0",
    ("osp:1|2", "grading"):
        "fb353803c202e7dbe1362d4847228366da9037935675686ee6944862fa7690f7",
    ("osp:1|2", "relations"):
        "c654e806941338f5533d3e01525f127943f564f1374dddd7845f32143d5ea57a",
    ("osp:1|2", "cartan"):
        "92bae2de95b2b1af7e1dc07dd1b852e23420c08f47dee253c34383dc1e990ab6",
    ("sl:2|1", "algebra"):
        "74ebb83212c05653fdf2cb88004a0b629d08b923330f56689ac94d61f2cb899f",
    ("sl:2|1", "grading"):
        "45620f98cb079afb305a2752832bfb2557121e775c3f0be887ea7c9dddcc3b95",
    ("sl:2|1", "relations"):
        "1dd4c1b5bc5b311c19acfb7bba933f12b63ece8b5cee6e83d8fea07f764bed1c",
    ("sl:2|1", "cartan"):
        "0cd40a8b36ed99397a6e0675c2b2759661725158866274ab4d42cdfdd5b5d648",
    ("spo:2|3", "algebra"):
        "e1308715ef12ae4c57ff3870f3f6a58f22ea4987468eb96a2cb5b4d985475c8b",
    ("spo:2|3", "grading"):
        "3cccb04dbcce87669b23bf818699595b4f8692d73ce3cc4b5d576c6d63dea9fe",
    ("spo:2|3", "relations"):
        "37e6c26d15569521233af30c90dd503bb23990547ed441564b0ef6a830fb6879",
    ("spo:2|3", "cartan"):
        "5bb36866ab034c95c0cf5c5380249b0e3114404e81a49512a1d510cb7ef5234f",
    ("spo:2|5", "algebra"):
        "03f795d7a2fab3688a22c04e4a7e822d73adf67b5101deb3746228503e5277e5",
    ("spo:2|5", "grading"):
        "78829a234aec0246a73c540ee66a50b0bddfc42264c140f26ff1100249c51a70",
    ("spo:2|5", "relations"):
        "a07f6f47c9b77e5a0d9f74ae9a7b864c47c0551388b752fb3d9c67cb4dedc53e",
    ("spo:2|5", "cartan"):
        "71359cd8837962b7c3c3744bed81d715e38fcc63bc5acd958d39b92d7aec3a3b",
    ("psl:3|3", "algebra"):
        "361d6c5a37c4e359668a9418386e85f91eabeae3d279bf655441cac67475cd9b",
    ("psl:3|3", "grading"):
        "ba128a89a72e13dcb48a8041171c4fe52b980dd92238324d2cfe35c235c4133e",
    ("psl:3|3", "relations"):
        "086b860c30b06dc3dab0d5a1fd296742b3cb1a2557c2dfc56ad19aed8607921b",
    ("psl:3|3", "cartan"):
        "2457673adc332def6b318dd925e84ab64c59873273909b0e38f30009c64cae3a",
    ("spo:8|1", "algebra"):
        "f28a51050588d8c942803945f8b7414b85478438975349208222bfb306b41a3f",
    ("spo:8|1", "grading"):
        "5d0fc967298281136f807dc3514f7784095f7d81709e376079d8cbc7e6c637f1",
    ("spo:8|1", "relations"):
        "4831b8dddc8f280f86e630b1b84b0b3ff7acd9752d5f751962b4509604417db9",
    ("spo:8|1", "cartan"):
        "cf2ec88f4228a11aa325b802f1b3bb4c91187e4ce350a87902ee8ea169b92c36",
}


def test_outputs_frozen():
    got = {}
    for desc in dict.fromkeys(desc for desc, _ in FROZEN_OUTPUT_DIGESTS):
        g = build_algebra(desc)
        gr = grade(g)
        for command, obj in (("algebra", g.to_json_dict()),
                             ("grading", gr.to_json_dict()),
                             ("relations", verify_relations(gr)),
                             ("cartan", build_cartan_w(gr).as_json_dict())):
            text = json.dumps(obj, sort_keys=True)
            got[(desc, command)] = hashlib.sha256(text.encode()).hexdigest()
    assert got == FROZEN_OUTPUT_DIGESTS


def test_errors_map_to_exit_codes(monkeypatch):
    result = run("grading", "g3:1")
    assert (result.exit_code, result.stdout) == (2, "")
    assert "'g3' is not supported" in result.stderr
    result = run("relations", "psl:1|1")
    assert (result.exit_code, result.stdout) == (3, "")
    assert "no minimal root exists for psl:1|1" in result.stderr

    def broken(descriptor):
        raise ConsistencyError("cross-check failed")
    monkeypatch.setattr(cli, "build_algebra", broken)
    result = run("algebra", "osp:1|2")
    assert (result.exit_code, result.stdout) == (4, "")
    assert "cross-check failed" in result.stderr


def test_relations_exits_one_unless_ok(monkeypatch):
    monkeypatch.setattr(cli, "verify_relations",
                        lambda grading: {"ok": False, "identities": []})
    result = run("relations", "osp:1|2")
    assert result.exit_code == 1
    assert json.loads(result.stdout)["ok"] is False


def run_module(module, *args):
    """``python -m module args`` over the source tree."""
    return subprocess.run([sys.executable, "-m", module, *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)


def test_module_forms_run_the_cli():
    # both the package and its cli module run as scripts from a source
    # checkout, with the console script's exit codes
    want = verify_relations(grade(build_algebra("osp:1|2")))
    for module in ("minwsuper", "minwsuper.cli"):
        done = run_module(module, "relations", "osp:1|2")
        assert done.returncode == 0, (module, done.stderr)
        assert json.loads(done.stdout) == json.loads(json.dumps(want))
        done = run_module(module, "grading", "g3:1")
        assert (done.returncode, done.stdout) == (2, ""), module
        assert "'g3' is not supported" in done.stderr
