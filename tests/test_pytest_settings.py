"""The suite's own pytest settings, as a tier-1 run meets them."""

import subprocess
import sys
from pathlib import Path

from child_env import child_env

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# a property that fails, a test after it, and a DeprecationWarning of the
# suite's own, which stays an error
SESSION = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_failing_property(x):
    assert x < 0


def test_after_the_property():
    pass


def test_other_deprecation_warnings_stay_errors():
    warnings.warn("mypy_extensions.TypedDict is gone", DeprecationWarning)
'''


def test_a_failing_property_fails_alone(tmp_path):
    # with every warning an error, a third-party DeprecationWarning that
    # hypothesis' plugin meets while it reports a failing property became
    # an INTERNALERROR, and the session stopped there
    (tmp_path / "test_session.py").write_text(SESSION)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout
    assert out.stdout.splitlines()[-1].startswith("2 failed, 1 passed"), out.stdout
