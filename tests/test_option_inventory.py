"""Inventory of the runtime switches the package reads from the environment.

Every environment variable is an option: it doubles the configurations the
tests and benchmarks must cover.  This test pins the set, so adding a new
environment switch to ``src/repro`` takes a deliberate edit here.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent

#: The environment variables ``src/repro`` reads, and why each exists.
EXPECTED_ENV_VARS = {
    "REPRO_TRACE",  # opt-in span tracing (repro.obs.trace)
    "REPRO_OBS_DISABLED",  # turn the metrics registry off (repro.obs.registry)
}


def _is_os_environ(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _key(node) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return f"<computed key: {ast.unparse(node)}>"


def env_reads(tree) -> set:
    """Keys of every ``os.environ.get(k)``, ``os.environ[k]`` and ``os.getenv(k)``."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_os_environ(node.value):
            keys.add(_key(node.slice))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            environ_get = func.attr == "get" and _is_os_environ(func.value)
            getenv = (
                func.attr == "getenv"
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            )
            if (environ_get or getenv) and node.args:
                keys.add(_key(node.args[0]))
    return keys


def test_environment_variables_read_by_the_package_are_pinned():
    found = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        for key in env_reads(ast.parse(path.read_text(), filename=str(path))):
            found.setdefault(key, []).append(str(path.relative_to(PACKAGE_ROOT)))
    assert set(found) == EXPECTED_ENV_VARS, found


def test_the_inventory_sees_every_read_form():
    source = (
        "import os\n"
        "os.environ.get('A')\n"
        "os.environ['B']\n"
        "os.getenv('C', '1')\n"
        "os.environ.get(name)\n"
        "other.get('D')\n"
    )
    assert env_reads(ast.parse(source)) == {"A", "B", "C", "<computed key: name>"}
