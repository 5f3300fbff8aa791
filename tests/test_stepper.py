"""The C stepper's build, as the loader runs it on a cache miss."""

import ctypes
import os
import re

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


def _c_params(text: str) -> list:
    """step_segment's parameter types in the C source, "*" for a pointer."""
    head = re.search(r"void step_segment\((.*?)\)\s*\{", text, re.S).group(1)
    head = re.sub(r"/\*.*?\*/", "", head, flags=re.S)
    return ["*" if "*" in p else " ".join(p.split()[:-1]) for p in head.split(",")]


def test_c_call_declares_the_parameters_the_loader_passes():
    # a count or type that differs between _stepper.c and the ctypes
    # argtypes is undefined behaviour in the call, not an error
    with open(os.path.join(os.path.dirname(_stepper.__file__), "_stepper.c")) as f:
        params = _c_params(f.read())
    ctype = {ctypes.c_void_p: "*", ctypes.c_int64: "int64_t"}
    argtypes = _stepper._c_step.argtypes
    assert len(params) == len(argtypes)
    assert params == [ctype[t] for t in argtypes]
