"""The golden corpus: every case under tests/golden, run through cli.main,
writes the expected files byte for byte and exits with the expected code.
A deliberate change of output is regenerated by tests/golden/regen.py."""

import pytest

from golden.regen import cases, differences, run_case


@pytest.mark.parametrize("case", cases(), ids=lambda case: case.name)
def test_a_golden_case_reproduces_its_files_and_exit_code(tmp_path, case):
    assert differences(case, *run_case(case, tmp_path)) == []
