"""The package runs with exactly the dependencies ``pyproject.toml`` declares.

Each test starts a fresh interpreter whose ``sitecustomize`` installs a
``sys.meta_path`` finder refusing every top-level module that is neither
in the standard library, nor ``repro``, nor a declared dependency.
Worker processes inherit the blocker through the environment, so a
sweep's pool is held to the same rule as its parent.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
JOB = REPO_ROOT / "examples" / "jobs" / "figure2-small.json"

BLOCKER = """\
import sys

ALLOWED = {allowed!r}


class UndeclaredImportBlocker:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in sys.stdlib_module_names or top in ALLOWED:
            return None
        raise ModuleNotFoundError(f"undeclared dependency: {{name}}", name=name)


sys.meta_path.insert(0, UndeclaredImportBlocker())
"""


def _declared_modules() -> set[str]:
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).replace("-", "_").lower()
        for requirement in project["dependencies"]
    }


@pytest.fixture(scope="module")
def blocked_env(tmp_path_factory) -> dict[str, str]:
    site_dir = tmp_path_factory.mktemp("blocker")
    allowed = sorted(_declared_modules() | {"repro"})
    (site_dir / "sitecustomize.py").write_text(BLOCKER.format(allowed=allowed))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site_dir), str(REPO_ROOT / "src")])
    return env


def _run(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_blocker_refuses_undeclared_modules(blocked_env):
    # hypothesis runs this suite but is no dependency of the package.
    proc = _run(["-c", "import hypothesis"], blocked_env)
    assert proc.returncode != 0
    assert "undeclared dependency: hypothesis" in proc.stderr


def test_cli_imports_with_declared_dependencies_only(blocked_env):
    proc = _run(["-c", "import repro.cli"], blocked_env)
    assert proc.returncode == 0, proc.stderr


def test_sweep_runs_with_declared_dependencies_only(blocked_env, tmp_path):
    plain_env = dict(os.environ)
    plain_env["PYTHONPATH"] = str(REPO_ROOT / "src")
    csvs = {}
    for label, env in (("blocked", blocked_env), ("plain", plain_env)):
        csv = tmp_path / f"{label}.csv"
        proc = _run(
            ["-m", "repro", "sweep-run", "--job", str(JOB), "--csv", str(csv)],
            env,
        )
        assert proc.returncode == 0, proc.stderr
        csvs[label] = csv.read_bytes()
    assert csvs["blocked"] == csvs["plain"]
