"""The repository's pytest configuration must report every failing test.
It turns a DeprecationWarning into an error, and that must not stop the
session when hypothesis reports a failing example."""

import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTIES = textwrap.dedent(
    """
    import warnings

    from hypothesis import given, settings, strategies as st


    @settings(database=None)
    @given(st.integers())
    def test_first_fails(x):
        assert x < 0


    @settings(database=None)
    @given(st.integers())
    def test_second_fails(x):
        assert x > 0


    def test_passes():
        pass


    def test_deprecation_is_an_error():
        warnings.warn("an old API", DeprecationWarning)
    """
)


def test_every_failing_property_is_reported(tmp_path):
    # to print a failing example, hypothesis's pytest plugin imports libcst
    # where it is installed, and libcst's import warns that
    # mypy_extensions.TypedDict is deprecated; as an error, that warning
    # ended the session with INTERNALERROR after the first failure
    (tmp_path / "test_properties.py").write_text(PROPERTIES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_properties.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    # any other DeprecationWarning still fails its test
    assert "3 failed, 1 passed" in proc.stdout
    assert "FAILED test_properties.py::test_deprecation_is_an_error" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
