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


def _c_functions(text: str) -> dict:
    """Each exported (not static) function of the C source: its return
    type and its parameter types, "*" for a pointer."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return {name: (ret, ["*" if "*" in p else " ".join(p.split()[:-1])
                         for p in head.split(",")])
            for ret, name, head in re.findall(r"^(\w+) (\w+)\((.*?)\)\s*\{", text, re.S | re.M)}


def test_c_call_declares_the_parameters_the_loader_passes():
    # a count or type that differs between _stepper.c and the ctypes
    # argtypes or restype is undefined behaviour in the call, not an error
    with open(os.path.join(os.path.dirname(_stepper.__file__), "_stepper.c")) as f:
        functions = _c_functions(f.read())
    assert sorted(functions) == ["resolve", "step_segment"]
    ctype = {ctypes.c_void_p: "*", ctypes.c_int64: "int64_t", None: "void"}
    for name, (ret, params) in functions.items():
        fn = getattr(_stepper._lib, name)
        assert ctype[fn.restype] == ret, name
        assert len(params) == len(fn.argtypes), name
        assert params == [ctype[t] for t in fn.argtypes], name


UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=undefined")

# builds and runs the golden rows given as JSON in argv[2] with the library
# at argv[1], its resolve placing their words and its step_segment stepping
# them, and prints their cycles; undefined behaviour aborts the process
_UBSAN_RUN = """
import json, sys
from dasim import _stepper, desk_default
from dasim.kernels.gemm import gen_gemm
from dasim.kernels.gemv import gen_gemv
from dasim.kernels.plan import run_plan
_stepper._lib = _stepper._load(sys.argv[1])
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
