"""The one way a test replaces or counts a moss function, and runs moss in
a fresh interpreter.

rebind and spy patch every binding of a function in the loaded moss.*
submodules and in the classes they define, never the package moss: moss.X
is read from its module on every access, so it follows the patch, and a
patch of the package would leave a stale copy in its namespace when it is
undone.  Only the stdlib and pytest are imported here, so that a broken moss
fails its own tests, not the collection of every file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                 reason="needs Linux VmHWM")


def run_python(*args, **kwargs):
    """Run a fresh interpreter on args with moss from src, capturing its text output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          **kwargs)


@pytest.fixture
def rebind(monkeypatch):
    """rebind(original, replacement) binds replacement to every name that a
    loaded moss.* submodule, or a class defined in one, binds to original,
    and returns original."""
    def rebind(original, replacement):
        owners = []
        for name, module in sys.modules.items():
            if name.startswith("moss."):
                owners.append(module)
                owners += [cls for cls in vars(module).values()
                           if isinstance(cls, type) and cls.__module__ == name]
        targets = [(owner, attr) for owner in owners
                   for attr, value in vars(owner).items() if value is original]
        assert targets, f"no moss module binds {original!r}"
        for owner, attr in targets:
            monkeypatch.setattr(owner, attr, replacement)
        return original

    return rebind


@pytest.fixture
def spy(rebind):
    """spy(original, then=None) rebinds original to a wrapper that appends
    each call's positional arguments to the list it returns, then calls
    then, by default original."""
    def spy(original, then=None):
        calls = []
        then = then or original

        def spied(*args, **kwargs):
            calls.append(args)
            return then(*args, **kwargs)

        rebind(original, spied)
        return calls

    return spy


@pytest.fixture(autouse=True)
def _lazy_namespace_holds_no_public_name():
    """After each test, and after monkeypatch's undo (an autouse fixture is
    torn down last), the lazy package stores none of its public names."""
    yield
    moss = sys.modules.get("moss")
    if moss is not None:
        stale = sorted(set(vars(moss)) & set(moss.__all__))
        assert not stale, f"moss's namespace holds {stale}"
