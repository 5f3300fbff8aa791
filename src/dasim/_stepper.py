"""Cycle-stepped core of the simulator: the C stepper and its loader.

One function, ``step_segment``, advances a whole barrier-delimited
program segment, one packed chunk of per-PE op columns, over shared
bank/port/backend state. It is written in C (``_stepper.c``), compiled
on first import with ``gcc -O2 -shared -fPIC`` into this package's
``__pycache__`` and loaded with ctypes over the numpy buffers. The build
is keyed by a CRC of the source, the compiler and its flags, so an edit
rebuilds it. A missing compiler or a failed build raises ImportError;
there is no Python fallback here. The Python stepper the C one was
ported from is kept as the test oracle, ``tests/reference_stepper.py``.

The op kinds, ledger columns and width, fault codes and DEP_RING below
are the only definitions: the build passes them to the C file as -D macros.

PEs are taken from a priority queue in (t_free, pe) order, so a PE is
visited only at the cycle it can next act: it leaves the queue while it
waits at the barrier, after its last op and while it waits on a DMA
transfer nobody has started yet. Every PE the queue yields has t_free
equal to the current cycle, because a PE that stalls, issues or is woken
at a cycle is queued again at a later one. So the order is cycle by
cycle and, within a cycle, by PE id: the order of a scan over all PEs
per cycle. Shared-resource bookings therefore happen in chronological
order with PE id as the tie-break, which makes every run
bit-deterministic.
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
K_BARRIER = 3
K_DMA_START = 4
K_DMA_WAIT = 5

# accounting columns
ACC_ISSUED = 0
ACC_LSU = 1
ACC_RAW = 2
ACC_INS = 3
ACC_WFI = 4
ACC_WIDTH = 5       # columns of the ledger; report.LEDGER names them

DEP_RING = 4096

# fault codes
FAULT_DMA_RESTART = 1
FAULT_DMA_UNKNOWN = 2
FAULT_BARRIER_NOT_LAST = 3
FAULT_DMA_NEVER_STARTED = 4
FAULT_BARRIER_PARTIAL = 5

CFLAGS = ("-O2", "-shared", "-fPIC")
_HERE = os.path.dirname(os.path.abspath(__file__))
_M64 = (1 << 64) - 1


def _defines() -> list:
    return [f"-D{name}={value}" for name, value in globals().items()
            if name.startswith(("K_", "ACC_", "FAULT_")) or name == "DEP_RING"]


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


_c_step = ctypes.CDLL(_build(os.path.join(_HERE, "__pycache__"))).step_segment
# 27 buffers, then the sizes and parameters; the INS threshold and seed are unsigned
_c_step.argtypes = ([ctypes.c_void_p] * 27 + [ctypes.c_int64] * 10
                    + [ctypes.c_uint64] * 2 + [ctypes.c_int64])
_c_step.restype = None


def step_segment(
    # per-op columns of the segment [n_pe, L]; ops per PE
    op_kind, op_cls, op_arg, op_bank, op_level, op_dep1, op_dep2, n_ops,
    # per-PE state
    abs_idx, t_free,
    ready, ready_kind,            # dep rings [n_pe, DEP_RING]
    win,                          # [n_pe, window] outstanding-op slots
    acct,                         # [n_pe, ACC_WIDTH] ledger of this segment
    ins_done,                     # last abs idx charged an INS stall
    # shared memory-system state
    bank_next,                    # [n_banks]
    out_next, in_next,            # [(tile * 4 + level) * ports + port]
    # DMA: transfer t's (backend, words) segments are entries
    # seg_ptr[t]:seg_ptr[t + 1]; then each transfer's completion cycle
    # (-1 until started) and each backend's next free cycle
    seg_ptr, seg_backend, seg_words, transfer_done, backend_next,
    # parameters
    level_lat, class_lat, out_ports, in_ports, pes_per_tile, banks_per_tile,
    l2_lat, dma_wpc, ins_prob, ins_seed, now,
):
    """Advance one segment from cycle ``now``, updating the state in place.

    Every array is a C-contiguous numpy array: uint8 op_kind, op_cls,
    op_level and ready_kind, int32 op_arg and op_bank, uint16 op_dep1
    and op_dep2, and int64 for the rest. The caller checks the chunk's
    index ranges. The segment ends in a barrier when its streams end in
    a barrier op. Returns ``(now, None)`` with the cycle the segment
    ended (the barrier's release, or else the last PE's finish), or the
    cycle of a fault and ``(FAULT_*, pe, detail)``.
    """
    n_pe, row = op_kind.shape
    work = np.empty(3 * n_pe, dtype=np.int64)
    out = np.empty(4, dtype=np.int64)
    buffers = (op_kind, op_cls, op_arg, op_bank, op_level, op_dep1, op_dep2, n_ops,
               abs_idx, t_free, ready, ready_kind, win, acct, ins_done,
               bank_next, out_next, in_next,
               seg_ptr, seg_backend, seg_words, transfer_done, backend_next,
               level_lat, class_lat, work, out)
    _c_step(*[b.ctypes.data for b in buffers],
            n_pe, row, win.shape[1], len(transfer_done), out_ports, in_ports,
            pes_per_tile, banks_per_tile, l2_lat, dma_wpc,
            int(ins_prob * (1 << 53)), ins_seed & _M64, now)
    now, code, pe, detail = out.tolist()
    return now, (code, pe, detail) if code else None
