"""``parse_decimal``: the one reading of an integer from outside text.

Its three callers' own behaviour is tested where they live: the report
window (``test_report.py::TestWindowSettingSpellings``), ``/statements``
(``tests/http/test_obs_endpoints.py``) and the worker environment
(``test_cli.py::TestWorkerEnv``).
"""

import pytest

from repro.strictint import parse_decimal


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("3", 3), (" 3 ", 3), ("\t12\n", 12), ("003", 3)])
def test_plain_and_padded_ascii_digits(text, value):
    assert parse_decimal(text) == value


@pytest.mark.parametrize("text", [
    "", " ", "1_0", "+3", "-3", "3.0", "0x3", "3e0", "3 3",
    "٣", "３", "9" * 5000])
def test_everything_else_is_none(text):
    assert parse_decimal(text) is None
