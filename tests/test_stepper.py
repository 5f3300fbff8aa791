"""The C stepper's build, as the loader runs it on a cache miss."""

import ctypes
import json
import os
import re
import subprocess
import sys

import pytest

from dasim import _stepper
from test_golden import GOLDEN


def test_stepper_source_compiles_without_warnings(tmp_path):
    flags = _stepper.CFLAGS + ("-Wall", "-Wextra", "-Werror")
    assert os.path.exists(_stepper._build(str(tmp_path), flags=flags))


# a compiler that does not exist, and one that runs and fails
@pytest.mark.parametrize("cc", ["dasim-no-such-cc", "false"])
def test_build_without_a_working_compiler_raises_import_error(tmp_path, cc):
    with pytest.raises(ImportError, match=f"'{cc}'"):
        _stepper._build(str(tmp_path), cc=cc)
    assert os.listdir(tmp_path) == []


def test_one_cycle_horizon_does_not_build(tmp_path, monkeypatch):
    # with QH 1 the horizon bucket is the bucket being read, so a PE
    # queued there would be visited again in the same cycle
    monkeypatch.setattr(_stepper, "QH", 1)
    with pytest.raises(ImportError, match="QH must be"):
        _stepper._build(str(tmp_path))
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


UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=undefined")

# runs the golden rows given as JSON in argv[2] with the stepper at argv[1]
# and prints their cycles; undefined behaviour aborts the process
_UBSAN_RUN = """
import json, sys
from dasim import _stepper, desk_default
from dasim.kernels.gemm import gen_gemm
from dasim.kernels.gemv import gen_gemv
from dasim.kernels.plan import run_plan
_stepper._c_step = _stepper._load(sys.argv[1])
gens = {"gen_gemm": gen_gemm, "gen_gemv": gen_gemv}
print(json.dumps([run_plan(gens[g](desk_default(), *shape, 1, scheme)).cycles
                  for g, shape, scheme in json.loads(sys.argv[2])]))
"""


def test_golden_runs_clean_under_ubsan(tmp_path):
    probe = tmp_path / "probe.c"
    probe.write_text("int f(int x) { return x + 1; }\n")
    if subprocess.run(["gcc", *UBSAN, "-shared", "-fPIC", "-o", str(tmp_path / "probe.so"),
                       str(probe)], capture_output=True).returncode:
        pytest.skip("gcc cannot link a -fsanitize=undefined shared object")
    lib = _stepper._build(str(tmp_path / "ubsan"), flags=_stepper.CFLAGS + UBSAN)
    rows = [(gen.__name__, shape, scheme) for gen, shape, scheme, _, _ in GOLDEN]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", _UBSAN_RUN, lib, json.dumps(rows)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [cycles for _, _, _, cycles, _ in GOLDEN]
