"""The repo's pytest configuration must report a failing property test and
run on: hypothesis's failure report imports libcst, which raises a
third-party DeprecationWarning that `error::DeprecationWarning` alone turns
into an INTERNALERROR that ends the pytest run."""

import pathlib
import subprocess
import sys
import textwrap

PROBE = textwrap.dedent('''
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x < 10


    def test_passes():
        pass
''')


def test_a_failing_property_test_is_reported_and_the_next_test_runs(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(root / "pyproject.toml"), "--rootdir", str(root),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out[-2000:]
