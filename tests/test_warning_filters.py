"""The test run's warning filters: every warning is an error, bar the one
deprecation warning that hypothesis's failure reporting sets off."""
import importlib


def test_hypothesis_failure_reporting_imports():
    # hypothesis's pytest plugin imports this module when a @given test
    # fails; its libcst import warns through mypy_extensions, and a warning
    # turned error there aborts the whole test run instead of reporting the test.
    importlib.import_module("hypothesis.extra._patching")
