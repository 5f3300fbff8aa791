"""Cycle-stepped core of the simulator: the C stepper and its loader.

One function, ``step_segment``, advances one phase's ops over shared
bank/port/backend state; engine.run_packed applies the phase's barrier
after it. It reads the phase's engine.PackedChunk as it is stored: the
op templates, each PE's copies of them in stream order, and the banks,
from each copy's ``copy_bank`` entry on. Per PE it keeps a cursor into
each (its copy, the op within the template, its next bank), and it
derives each access's hierarchy level from the PE and the bank, as
``topology.access_levels`` does. Its library also places words for
remap.resolve_array (``resolve``).

It is written in C (``_stepper.c``), compiled on first import with
``gcc -O2 -shared -fPIC`` into this package's ``__pycache__`` and loaded
with ctypes over the numpy buffers. The build is keyed by a CRC of the
source, the compiler and its flags, so an edit rebuilds it. A missing
compiler or a failed build raises ImportError; there is no Python
fallback here. The Python stepper the C one was ported from is kept as
the test oracle, ``tests/reference_stepper.py``; it reads the chunk's
flat view (``PackedChunk.cols``).

The op kinds, ledger columns and width, fault codes, DEP_RING and QH
below are the only definitions: the build passes them to the C file as
-D macros.

A PE is visited only at the cycle it can next act: it leaves the queue
after its last op and while it waits on a DMA transfer nobody has
started yet. A PE that stalls, issues or is
woken at a cycle is queued again at a later one, so the order is cycle
by cycle and, within a cycle, by PE id: the order of a scan over all
PEs per cycle. Shared-resource bookings therefore happen in
chronological order with PE id as the tie-break, which makes every run
bit-deterministic. The queue is a ring of QH per-cycle buckets, each a
bitmap of PE ids read lowest bit first. A PE due QH or more cycles ahead
waits in the ring's last bucket and, when that cycle comes, is queued
again without acting (a horizon visit), until its own cycle is in range.
"""

import ctypes
import os
import zlib

import numpy as np

# there is no numba stepper; the benchmark records the backend from this
HAVE_NUMBA = False


# op kinds
K_LOAD = 0
K_STORE = 1
K_COMPUTE = 2
K_DMA_START = 3
K_DMA_WAIT = 4

# accounting columns
ACC_ISSUED = 0
ACC_LSU = 1
ACC_RAW = 2
ACC_INS = 3         # always 0: the model has no instruction-fetch stall
ACC_WFI = 4
ACC_WIDTH = 5       # columns of the ledger; report.LEDGER names them

# ops per PE whose result the stepper keeps, a power of two (the index is a
# mask) above any dependence distance PeStream admits; the kernels' longest
# is 16 (gemm, desk 32^3 to tp 256^3) and gemv's 11 (desk 64^2, tp 256^2)
DEP_RING = 256

# the stepper's buckets: a PE due QH or more cycles ahead takes a horizon
# visit; a power of two from 2 to 64, one occupancy bit per bucket. At 64,
# 0.04% or fewer of the bench gemm workloads' requeues take one, and 9.2%
# (das) and 7.9% (interleaved) of tp gemv 256^2's
QH = 64

# fault codes
FAULT_DMA_RESTART = 1
FAULT_DMA_UNKNOWN = 2
FAULT_DMA_NEVER_STARTED = 3

CFLAGS = ("-O2", "-shared", "-fPIC")
_HERE = os.path.dirname(os.path.abspath(__file__))


def _defines() -> list:
    return [f"-D{name}={value}" for name, value in globals().items()
            if name.startswith(("K_", "ACC_", "FAULT_")) or name in ("DEP_RING", "QH")]


def _build(cache_dir: str, cc: str = "gcc", flags: tuple = CFLAGS) -> str:
    """Path of the compiled stepper in ``cache_dir``, built on a cache miss.

    A build goes to a temporary file that is then renamed, so processes
    importing at once each see either no library or a whole one.
    """
    src = os.path.join(_HERE, "_stepper.c")
    with open(src, "rb") as f:
        text = f.read()
    args = [*flags, *_defines()]
    key = zlib.crc32(" ".join([cc, *args]).encode(), zlib.crc32(text))
    path = os.path.join(cache_dir, f"_stepper-{key:08x}.so")
    if os.path.exists(path):
        return path
    import subprocess

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(cache_dir, exist_ok=True)
        subprocess.run([cc, *args, "-o", tmp, src], check=True,
                       capture_output=True, text=True)
        os.replace(tmp, path)
    except (OSError, subprocess.CalledProcessError) as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        why = e.stderr if isinstance(e, subprocess.CalledProcessError) else e
        raise ImportError(f"cannot build the dasim stepper with compiler {cc!r}: "
                          f"{why}") from e
    return path


def _load(path: str):
    """The library at ``path``, its step_segment and resolve typed for ctypes."""
    lib, ptr, i64 = ctypes.CDLL(path), ctypes.c_void_p, ctypes.c_int64
    # 28 buffers, then the sizes, the parameters and the start cycle
    lib.step_segment.argtypes, lib.step_segment.restype = [ptr] * 28 + [i64] * 12, None
    # the addresses and the region rows, each with its count, three parameters, the banks
    lib.resolve.argtypes, lib.resolve.restype = [ptr, i64] * 2 + [i64] * 3 + [ptr], i64
    return lib


_lib = _load(_build(os.path.join(_HERE, "__pycache__")))

# an op template's columns in step_segment's order, with the dtypes it reads
TEMPLATE_COLS = {"kind": np.uint8, "cls": np.uint8, "arg": np.int32, "dep1": np.uint16,
                 "dep2": np.uint16}


def step_segment(chunk, acct, st, now):
    """Advance one phase's ops from cycle ``now``, updating ``st`` in place.

    ``chunk`` is the phase's engine.PackedChunk; ``acct`` is the phase's
    [n_pe, ACC_WIDTH] int64 ledger; ``st`` is the run's engine._State,
    which holds every other array and parameter the C call takes,
    already converted. The caller checks the chunk's dtypes, pointers
    and index ranges. Returns ``(now, None)`` with the last PE's next
    free cycle, or the cycle of a fault and ``(FAULT_*, pe, detail)``.
    """
    n_pe = len(chunk.n_ops)
    work = np.empty(5 * n_pe + QH * -(-n_pe // 64), dtype=np.int64)
    out = np.empty(4, dtype=np.int64)
    buffers = (*(chunk.tpl[c] for c in TEMPLATE_COLS), chunk.tpl_ptr,
               chunk.copy_tpl, chunk.copy_ptr, chunk.copy_bank, chunk.bank, chunk.n_ops,
               st.abs_idx, st.t_free, st.ready, st.win, acct,
               st.bank_next, st.out_next, st.in_next,
               st.seg_ptr, st.seg_backend, st.seg_words, st.transfer_done, st.backend_next,
               st.level_lat, st.class_lat, work, out)
    _lib.step_segment(*[b.ctypes.data for b in buffers],
                      n_pe, st.win.shape[1], len(st.transfer_done), st.out_ports, st.in_ports,
                      st.pes_per_tile, st.banks_per_tile, st.tiles_per_subgroup,
                      st.tiles_per_group, st.l2_lat, st.dma_wpc, now)
    now, code, pe, detail = out.tolist()
    return now, (code, pe, detail) if code else None

