"""Golden reports: simulated output pinned bit for bit.

A change that must leave the model untouched (a refactor, a speed-up)
keeps these digests. A model change regenerates them and says so.
"""

import hashlib

import pytest

from dasim import desk_default, terapool_default
from dasim.kernels.gemm import gen_gemm
from dasim.kernels.gemv import gen_gemv
from dasim.kernels.plan import run_plan

GOLDEN = [
    (gen_gemm, (32, 32, 32), "das", 1878,
     "4bcc342a5481704e12efe7e3205e1ced785500967f9a01f721580ceb8d18eb0a"),
    (gen_gemm, (32, 32, 32), "interleaved", 2220,
     "2465cdedf401c239f0dc602bf5ed7fcc47ac4aaff0016efd40efb94f618dc4f2"),
    (gen_gemv, (64, 64), "das", 643,
     "0441f931577165c35f51d063552ac9490f3f0bd46d2d0dcb559ab57936a5f1af"),
    (gen_gemv, (64, 64), "interleaved", 830,
     "d982ee9c5c2d77fd9dd78e10c3daf26009ac5e88319a35ded28e1a6b8c3bc042"),
    # edge shapes of the pipelined reduction. gemv 12x64: one reduction
    # step per block (n_chunk 1), three 4-row blocks per PE, a 64-group
    # reduce phase
    (gen_gemv, (12, 64), "das", 5802,
     "2b7bbf1925a4d878facdab799a300c10ad12ec3326098304b3e7fd251e476e11"),
    (gen_gemv, (12, 64), "interleaved", 5727,
     "c8fe0452be6f096f19c5f67f0c85c4be028eede1fc5325c523a141b1c77d7d02"),
    # gemv 24x128: four steps per block, three blocks per PE
    (gen_gemv, (24, 128), "das", 3139,
     "e9152bd8b199f4112a60ba31647128096855be6e79594584cb5d3777f287f702"),
    (gen_gemv, (24, 128), "interleaved", 3567,
     "5ea71fee02bf25a52da0cd6411685ce880435e44a96c0e33ddaa42c34d6ecf36"),
    # gemm 8x1x8: one reduction step after the accumulator set-up
    (gen_gemm, (8, 1, 8), "das", 264,
     "05d774b31b765947cc45113586af6688d4734b817184d5beeebd5102dc107452"),
    (gen_gemm, (8, 1, 8), "interleaved", 264,
     "18267c5aa9881f233701aea3deca55629a5c505661811e9a90818c5b2457962d"),
]

# the 32^3 gemm and 64^2 gemv rows go by kernel and scheme; edge shapes add the shape
_BASE_SHAPES = ((32, 32, 32), (64, 64))


def _golden_id(gen, shape, scheme):
    tag = "" if shape in _BASE_SHAPES else "-" + "x".join(map(str, shape))
    return f"{gen.__name__}{tag}-{scheme}"


# the full 1024-PE cluster, where most PEs sit idle on most cycles
TERAPOOL_GEMM_64 = [
    ("das", 4403, "c1fb54fe5664099f01cdb5b74ff00c9ec5fbade79129626c392854575855fea8"),
    ("interleaved", 8068,
     "4891c2eaafdaf787d029ee8926b22792bb458f8282fc9d330e658c5d9dc011bd"),
]

# the benchmark's other two workloads, per scheme: the 1024-PE gemv, whose
# accesses are port-bound, and the 64-PE gemm that runs four problems at once
BENCH_WORKLOADS = [
    pytest.param(terapool_default, gen_gemv, (256, 256), 1, "das", 2847,
                 "58c3ab11f9dce9bd690636bd4e20ebb90cc946245f1c6ce96d10dd3925a60d6e",
                 id="tp-gemv-256-das"),
    pytest.param(terapool_default, gen_gemv, (256, 256), 1, "interleaved", 3236,
                 "0b33d029c2eea0e5e69e5c358e24962d5236efa5e91e4eb3ae6de1052b57ed9c",
                 id="tp-gemv-256-interleaved"),
    pytest.param(desk_default, gen_gemm, (32, 64, 32), 4, "das", 7107,
                 "fc6fdd6c0fde1c4452987d90104b032cd08052320d6e04038ce9e9981e077aa3",
                 id="desk-gemm-par4-das"),
    pytest.param(desk_default, gen_gemm, (32, 64, 32), 4, "interleaved", 10963,
                 "843cac9a070aef1432dc34f5d432fb6dc6667594240747bd1d26a6da63a68c3c",
                 id="desk-gemm-par4-interleaved"),
]


def _digest(rep):
    return hashlib.sha256(rep.to_json_str().encode()).hexdigest()


@pytest.mark.parametrize("gen,shape,scheme,cycles,digest", GOLDEN,
                         ids=[_golden_id(*row[:3]) for row in GOLDEN])
def test_desk_report_digest(gen, shape, scheme, cycles, digest):
    rep = run_plan(gen(desk_default(), *shape, 1, scheme))
    assert rep.cycles == cycles
    assert _digest(rep) == digest


@pytest.mark.parametrize("scheme,cycles,digest", TERAPOOL_GEMM_64,
                         ids=[s for s, _, _ in TERAPOOL_GEMM_64])
def test_terapool_gemm_report_digest(scheme, cycles, digest):
    rep = run_plan(gen_gemm(terapool_default(), 64, 64, 64, 1, scheme))
    assert rep.cycles == cycles
    assert _digest(rep) == digest


@pytest.mark.parametrize("topo,gen,shape,n_parallel,scheme,cycles,digest", BENCH_WORKLOADS)
def test_bench_workload_report_digest(topo, gen, shape, n_parallel, scheme, cycles, digest):
    rep = run_plan(gen(topo(), *shape, n_parallel, scheme))
    assert rep.cycles == cycles
    assert _digest(rep) == digest
