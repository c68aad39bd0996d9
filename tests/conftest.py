"""Shared fixtures: the compiled kernel, built by this checkout's setup.py."""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from unittest import mock

import pytest

# Imported first so the engine settles on its default kernel before the
# fixture below loads the extension.
import rsys._engine
import rsys.core

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The `rsys._kernel_c` extension, built by `setup.py build_ext` into a
    temporary directory. Never build into src/rsys: an ignored .so there
    outlives a checkout and makes the compiled kernel everyone's default.
    Skips only when there is no C++ compiler; a failed build fails."""
    cxx = (sysconfig.get_config_var("CXX") or "c++").split()[0]
    if shutil.which(cxx) is None:
        pytest.skip(f"no C++ compiler found ({cxx})")
    out = tmp_path_factory.mktemp("kernel_c")
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out)],
        cwd=REPO, capture_output=True, text=True,
    )
    path = out / "rsys" / ("_kernel_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    if done.returncode != 0 or not path.exists():
        pytest.fail(f"building the compiled kernel failed:\n{done.stdout}{done.stderr}")
    spec = importlib.util.spec_from_file_location("rsys._kernel_c", path)
    # A single-phase extension registers itself in sys.modules on load;
    # only tests that ask for the compiled kernel may see it.
    with mock.patch.dict(sys.modules):
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled(monkeypatch, compiled_kernel):
    """Make the temp-built extension the engine's compiled kernel."""
    monkeypatch.setattr(rsys._engine, "_kernel_c", compiled_kernel)
    return compiled_kernel


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    """Each kernel backend in turn; the compiled one only where it builds."""
    if request.param == "compiled":
        request.getfixturevalue("compiled")
    return request.param


@pytest.fixture
def table_builds(monkeypatch):
    """Count the replay lookup tables run_process builds."""
    calls = []
    build = rsys.core.res_tables

    def counting(*args):
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(rsys.core, "res_tables", counting)
    return calls
