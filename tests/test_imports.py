"""What importing the package loads: numpy and the standard library only.

scipy (the test oracles' numerics) and PyYAML (config files only) each cost
more to import than the analysis of a full study takes. The package itself
is bare: names live in their submodules, and ``import telefitts`` loads none
of them. The package's source is also checked for float sums whose bits
depend on the Python version.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import telefitts

SRC = os.path.dirname(os.path.dirname(os.path.abspath(telefitts.__file__)))

PROBE = textwrap.dedent('''
    import sys

    import telefitts

    public = [name for name in vars(telefitts) if not name.startswith("_")]
    assert not public, f"telefitts exports {public}"
    assert isinstance(telefitts.__version__, str)
    loaded = sorted(m for m in sys.modules if m.startswith("telefitts."))
    assert not loaded, f"a bare import of telefitts loads {loaded}"

    import telefitts.sim, telefitts.cli

    loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))
    assert not loaded, f"{len(loaded)} modules imported with the package: {loaded[:4]} ..."

    from telefitts.sim import ConfigError, load_study_config

    good, bad = sys.argv[1:]
    config = load_study_config(good)
    assert (config.preset, config.participants, config.seed) == ("realistic", 3, 12)
    try:
        load_study_config(bad)
    except ConfigError as exc:
        assert "cannot parse config file" in str(exc), exc
    else:
        raise AssertionError("a YAML syntax error was not a ConfigError")
    print("ok")
''')


def test_package_imports_neither_scipy_nor_yaml(tmp_path):
    good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
    good.write_text("preset: realistic\nparticipants: 3\nseed: 12\n")
    bad.write_text("preset: [realistic\nseed: 1\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", PROBE, str(good), str(bad)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


#: The builtin ``sum`` calls allowed in the package, all over integers. From
#: Python 3.12 ``sum`` rounds a float sum differently, so floats are summed
#: with ``telefitts.models.left_sum``.
INTEGER_SUMS = {
    ("trials.py", "sum(cell)"),
    ("trials.py", "sum(map(operator.mul, cell, cell))"),
    ("trials.py", "sum(ns)"),
}


def test_builtin_sum_is_called_only_on_integers():
    calls, names = [], 0
    for path in sorted(pathlib.Path(SRC, "telefitts").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names += isinstance(node, ast.Name) and node.id == "sum"
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "sum":
                calls.append((path.name, ast.unparse(node)))
    assert set(calls) <= INTEGER_SUMS, sorted(set(calls) - INTEGER_SUMS)
    assert names == len(calls), "sum is named somewhere other than in a call"
