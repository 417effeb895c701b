"""The package's public names: each module lists its own in `__all__`, and
`pointseg` itself holds only `__version__`, so a name is imported from the
module that defines it."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pointseg

MODULES = ["cli", "errors", "grids", "i2s", "loop", "losses", "metrics", "s2i", "synth"]
# cli and errors list no __all__: cli is the command-line entry point, and every
# class in errors is public.
LISTED = [name for name in MODULES if name not in ("cli", "errors")]


def _fresh(code: str) -> subprocess.CompletedProcess:
    src = Path(pointseg.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("name", LISTED)
def test_every_listed_name_is_defined_in_its_module(name):
    # With no facade, a stale __all__ entry is how a public name goes missing.
    module = importlib.import_module(f"pointseg.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for public in module.__all__:
        assert getattr(module, public).__module__ == module.__name__, public


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_on_its_own(name):
    # A circular import shows only when nothing has loaded the other modules.
    done = _fresh(f"import pointseg.{name}")
    assert done.returncode == 0, done.stderr


def test_package_holds_only_its_version():
    done = _fresh("import pointseg; print(sorted(n for n in vars(pointseg) if n[0] != '_'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_console_script_runs_main():
    # CI runs `python -m pointseg.cli`; this runs what `pointseg` installs:
    # the [project.scripts] target, called as the generated script calls it.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["pointseg"]
    module, _, attr = target.partition(":")
    for argv, code in ((["--help"], 0), (["train", "--config", "x.json"], 1)):
        done = _fresh(f"import sys; from {module} import {attr}; "
                      f"sys.argv = ['pointseg', *{argv!r}]; sys.exit({attr}())")
        assert done.returncode == code, (argv, done.stderr)
    assert "usage: pointseg train" in done.stderr and "Traceback" not in done.stderr
