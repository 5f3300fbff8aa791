"""The C stepper's build, as the loader runs it on a cache miss."""

import ctypes
import json
import os
import re
import subprocess
import sys

import pytest

from dasim import _stepper
from test_golden import GOLDEN, TERAPOOL_GEMM_64


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
    assert sorted(functions) == ["end_phase", "resolve", "step_segment"]
    ctype = {ctypes.c_void_p: "*", ctypes.c_int64: "int64_t", None: "void"}
    for name, (ret, params) in functions.items():
        fn = getattr(_stepper._lib, name)
        assert ctype[fn.restype] == ret, name
        assert len(params) == len(fn.argtypes), name
        assert params == [ctype[t] for t in fn.argtypes], name


UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=undefined")
ASAN = ("-fsanitize=address",)

# builds and runs the plans given as JSON rows (topology, kernel, shape,
# scheme) in argv[2] with the library at argv[1], its resolve placing their
# words and its step_segment stepping them, and prints their cycles; a
# sanitizer's finding aborts the process
_SANITIZED_RUN = """
import json, sys
from dasim import _stepper, desk_default, terapool_default
from dasim.kernels.gemm import gen_gemm
from dasim.kernels.gemv import gen_gemv
from dasim.kernels.plan import run_plan
_stepper._lib = _stepper._load(sys.argv[1])
topos = {"desk": desk_default, "terapool": terapool_default}
gens = {"gen_gemm": gen_gemm, "gen_gemv": gen_gemv}
print(json.dumps([run_plan(gens[g](topos[t](), *shape, 1, scheme)).cycles
                  for t, g, shape, scheme in json.loads(sys.argv[2])]))
"""

# the desk golden rows, as _SANITIZED_RUN rows, and their cycles
DESK_ROWS = [("desk", gen.__name__, shape, scheme) for gen, shape, scheme, _, _ in GOLDEN]
DESK_CYCLES = [cycles for _, _, _, cycles, _ in GOLDEN]


def _run_sanitized(tmp_path, flags, rows, env=()):
    """The cycles of ``rows`` stepped by a stepper built with ``flags``
    added, in a subprocess with ``env`` set; skips when gcc cannot link a
    shared object with ``flags``, and fails when the process does not
    exit cleanly."""
    probe = tmp_path / "probe.c"
    probe.write_text("int f(int x) { return x + 1; }\n")
    if subprocess.run(["gcc", *flags, "-shared", "-fPIC", "-o", str(tmp_path / "probe.so"),
                       str(probe)], capture_output=True).returncode:
        pytest.skip(f"gcc cannot link a {' '.join(flags)} shared object")
    lib = _stepper._build(str(tmp_path / "lib"), flags=_stepper.CFLAGS + flags)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **dict(env))
    run = subprocess.run([sys.executable, "-c", _SANITIZED_RUN, lib, json.dumps(rows)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_golden_runs_clean_under_ubsan(tmp_path):
    assert _run_sanitized(tmp_path, UBSAN, DESK_ROWS) == DESK_CYCLES


def test_golden_runs_clean_under_asan(tmp_path):
    # UBSan does not see a write past a numpy buffer, such as one past a
    # `work` array sized short of the stepper's layout; ASan does. The
    # python process is not instrumented, so the runtime is preloaded.
    # TeraPool gemm 64^3 takes 1,024 PE records and 16 words per bucket
    runtime = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("gcc has no AddressSanitizer runtime")
    rows = DESK_ROWS + [("terapool", "gen_gemm", (64, 64, 64), scheme)
                        for scheme, _, _ in TERAPOOL_GEMM_64]
    cycles = _run_sanitized(tmp_path, ASAN, rows, {"LD_PRELOAD": runtime,
                                                   "ASAN_OPTIONS": "detect_leaks=0"})
    assert cycles == DESK_CYCLES + [c for _, c, _ in TERAPOOL_GEMM_64]
