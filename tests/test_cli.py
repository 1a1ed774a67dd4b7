"""The console script: the package's JSON on stdout, error types as exit codes."""

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
