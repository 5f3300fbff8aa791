"""The C stepper's build, as the loader runs it on a cache miss."""

import os

import pytest

from dasim import _stepper


def test_stepper_source_compiles_without_warnings(tmp_path):
    flags = _stepper.CFLAGS + ("-Wall", "-Wextra", "-Werror")
    assert os.path.exists(_stepper._build(str(tmp_path), flags=flags))


# a compiler that does not exist, and one that runs and fails
@pytest.mark.parametrize("cc", ["dasim-no-such-cc", "false"])
def test_build_without_a_working_compiler_raises_import_error(tmp_path, cc):
    with pytest.raises(ImportError, match=f"'{cc}'"):
        _stepper._build(str(tmp_path), cc=cc)
    assert os.listdir(tmp_path) == []
