"""Workloads of the dasim benchmark and the code that builds their plans.

A scenario is one kernel shape on one topology. Answering it means
building and simulating its plan under both mapping schemes. Inputs
depend only on the shape: the kernels draw nothing from a seed.

Importing this module imports dasim from the ``src`` directory next to
the benchmark, never from anywhere else, so a checkout without ``src``
fails at import.
"""

import sys
from dataclasses import asdict, dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import dasim  # noqa: E402
from dasim import topology  # noqa: E402
from dasim.kernels import gemm, gemv  # noqa: E402

if Path(dasim.__file__).resolve().parent != SRC / "dasim":
    raise ImportError(f"dasim was imported from {dasim.__file__}, not from {SRC}")

SCHEMES = ("das", "interleaved")
TOPOLOGIES = {"terapool": topology.terapool_default,
              "desk": topology.desk_default}


@dataclass(frozen=True)
class Scenario:
    """One kernel shape on one topology, answered under both schemes.

    ``recorded_cycles`` (das, interleaved) and ``recorded_digest`` are
    what the simulator produced when the benchmark was defined. A run
    reports whether it still matches them, so a change that must leave
    the simulation untouched can be checked against them.
    """

    name: str
    topology: str
    kernel: str                 # "gemm" or "gemv"
    shape: tuple                # (M, N, P) for gemm, (M, N) for gemv
    n_parallel: int
    recorded_cycles: tuple = ()
    recorded_digest: str = ""

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "Scenario":
        return cls(**{**d, "shape": tuple(d["shape"]),
                      "recorded_cycles": tuple(d["recorded_cycles"])})


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {s.name: s for s in (
    Scenario(
        "tp-gemm-64", "terapool", "gemm", (64, 64, 64), 1,
        recorded_cycles=(4403, 8068),
        recorded_digest="173f06d3c40bda2122456b41aa0cbe8fda44ac85dc6ca2860ad782d7b7b546e4"),
    Scenario(
        "tp-gemv-256", "terapool", "gemv", (256, 256), 1,
        recorded_cycles=(2847, 3236),
        recorded_digest="5a2f9be7ec5f6668d995f4df76472a833c1b584436222413d3fcbc1136a4efd4"),
    Scenario(
        "desk-gemm-par4", "desk", "gemm", (32, 64, 32), 4,
        recorded_cycles=(7107, 10963),
        recorded_digest="a4fa29d226c57d4609cbd09189ca2171577686793c7a1ec56dcf35c2b9253fac"),
)}


def build_plan(scn: Scenario, scheme: str):
    """Generate, allocate, resolve and pack the scenario's plan."""
    topo = TOPOLOGIES[scn.topology]()
    if scn.kernel == "gemm":
        return gemm.gen_gemm(topo, *scn.shape, scn.n_parallel, scheme)
    if scn.kernel == "gemv":
        return gemv.gen_gemv(topo, *scn.shape, scn.n_parallel, scheme)
    raise ValueError(f"unknown kernel {scn.kernel!r}")
