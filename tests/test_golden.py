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
]


# the full 1024-PE cluster, where most PEs sit idle on most cycles
TERAPOOL_GEMM_64 = [
    ("das", 4403, "c1fb54fe5664099f01cdb5b74ff00c9ec5fbade79129626c392854575855fea8"),
    ("interleaved", 8068,
     "4891c2eaafdaf787d029ee8926b22792bb458f8282fc9d330e658c5d9dc011bd"),
]


def _digest(rep):
    return hashlib.sha256(rep.to_json_str().encode()).hexdigest()


@pytest.mark.parametrize("gen,shape,scheme,cycles,digest", GOLDEN,
                         ids=[f"{g.__name__}-{s}" for g, _, s, _, _ in GOLDEN])
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
