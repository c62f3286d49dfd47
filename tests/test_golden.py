import os

import pytest

import golden

CASES = golden.cases()


@pytest.mark.parametrize("path,make", CASES, ids=[os.path.relpath(p, golden.HERE) for p, _ in CASES])
def test_output_is_golden(path, make, tmp_path):
    with open(path) as fh:
        assert make(str(tmp_path)) == fh.read()
