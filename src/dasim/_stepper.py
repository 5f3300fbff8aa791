"""Cycle-stepped core of the simulator: the C stepper and its loader.

One function, ``step_segment``, advances one phase's ops over shared
bank/port/backend state; another, ``end_phase``, applies the phase's
barrier after it in closed form and fills its idle cycles. It reads
the phase's engine.PackedChunk as it is stored: the op templates, each
PE's copies of them in stream order, and the banks, from each copy's
``copy_bank`` entry on. Per PE it keeps a cursor into each (its copy,
the op within the template, its next bank), and it derives each
access's hierarchy level from the PE and the bank, as
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

A PE is queued at the cycle its next shared op issues, a load, store or
DMA start, or, for a DMA wait, at the first cycle it can check its
transfer, the cycle it is free; compute bursts never enter the queue.
When an op issues, the stepper gates the PE's next op at once, charges
its stall and issues any compute bursts in place, since they book
nothing shared. Under in-order issue those gates are final by then, but
for a DMA wait's transfer, which another PE may start until the wait's
own cycle comes; so a wait is gated when visited. A PE leaves the queue
after its last op and while it waits on a DMA transfer nobody has
started yet, and is queued again for the cycle after the transfer's
start. So the visits go cycle by cycle and, within a cycle, by PE id:
the order of a scan over all PEs per cycle. Shared-resource bookings
therefore happen in chronological order with PE id as the tie-break,
which makes every run bit-deterministic. The queue is a ring of QH
per-cycle buckets, each a bitmap of PE ids read lowest bit first, with
one occupancy bit per bucket, 64 to a word; the next bucket with a PE
due is found word by word round the ring. A PE due QH or more cycles
ahead waits in the ring's last bucket and, when that cycle comes, is
queued again without acting (a horizon visit), until its own cycle is in
range.

The run state's arrays are views of one buffer (``state_arrays``), so
their addresses follow from its one, and they reach the C calls with the
run's parameters as integers that engine._State builds once per run
(``state_args``): a phase converts only its chunk's arrays and the
ledger.
"""

import ctypes
import itertools
import math
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
# visit; a power of two of at least 2. The bench workloads' longest wait is
# 267 cycles (tp gemv 256^2, interleaved), so at 512 none of their visits
# is one; at 64, 19.3% (das) and 18.2% (interleaved) of tp gemv 256^2's
# were, and 0.07% or fewer of the gemm workloads'
QH = 512

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
    """The library at ``path``, its step_segment, end_phase and resolve typed for ctypes."""
    lib, ptr, i64 = ctypes.CDLL(path), ctypes.c_void_p, ctypes.c_int64
    # the chunk's 11 buffers and the ledger, the run state's 16, then the
    # sizes, the parameters and the start cycle
    lib.step_segment.argtypes, lib.step_segment.restype = [ptr] * 28 + [i64] * 12, None
    # the ledger and four run-state buffers, the PE count and window, the
    # end cycle and the barrier flag
    lib.end_phase.argtypes, lib.end_phase.restype = [ptr] * 5 + [i64] * 4, i64
    # the addresses and the region rows, each with its count, three parameters, the banks
    lib.resolve.argtypes, lib.resolve.restype = [ptr, i64] * 2 + [i64] * 3 + [ptr], i64
    return lib


_lib = _load(_build(os.path.join(_HERE, "__pycache__")))

# an op template's columns in step_segment's order, with the dtypes it reads
TEMPLATE_COLS = {"kind": np.uint8, "cls": np.uint8, "arg": np.int32, "dep1": np.uint16,
                 "dep2": np.uint16}
# the chunk's other arrays, in step_segment's order after the template columns
CHUNK_ARRAYS = ("tpl_ptr", "copy_tpl", "copy_ptr", "copy_bank", "bank", "n_ops")
# the run state's arrays and then its parameters, in step_segment's order
# (see engine._State); the sizes between them follow from the arrays
STATE_ARRAYS = ("abs_idx", "t_free", "ready", "win", "bank_next", "out_next", "in_next",
                "seg_ptr", "seg_backend", "seg_words", "transfer_done", "backend_next",
                "level_lat", "class_lat", "work", "out")
STATE_PARAMS = ("out_ports", "in_ports", "pes_per_tile", "banks_per_tile",
                "tiles_per_subgroup", "tiles_per_group", "l2_lat", "dma_wpc")


def work_slots(n_pe: int) -> int:
    """The int64 slots of step_segment's scratch ``work`` for ``n_pe`` PEs,
    as WORK_LAYOUT in _stepper.c lays it out."""
    return 9 * n_pe + QH * -(-n_pe // 64) + 7


def state_arrays(shapes: dict) -> tuple:
    """Zeroed int64 arrays of ``shapes`` (each an int or a tuple), one per
    name of STATE_ARRAYS in its order, as views of one buffer; and their
    addresses, which follow from the buffer's with no call per array."""
    shapes = [shapes[name] for name in STATE_ARRAYS]
    sizes = [math.prod(s) if isinstance(s, tuple) else s for s in shapes]
    buf = np.zeros(sum(sizes), dtype=np.int64)
    at = [0, *itertools.accumulate(sizes)]
    base = buf.ctypes.data
    return ([buf[a:b].reshape(s) for a, b, s in zip(at, at[1:], shapes)],
            [base + 8 * a for a in at[:-1]])


def state_args(st, addresses) -> tuple:
    """step_segment's C arguments that a run's engine._State fixes: its
    arrays' ``addresses`` (see state_arrays), its PE count, window and
    transfer count, and its parameters. They hold for the run as long as
    no array is rebound, which _State refuses."""
    return (*addresses, len(st.abs_idx), st.win.shape[1], len(st.transfer_done),
            *(getattr(st, name) for name in STATE_PARAMS))


def step_segment(chunk, acct, st, now):
    """Advance one phase's ops from cycle ``now``, updating ``st`` in place.

    ``chunk`` is the phase's engine.PackedChunk; ``acct`` is the run's
    [n_pe, ACC_WIDTH] int64 ledger, which the phase's cycles are added
    to; ``st`` is the run's engine._State,
    which holds every other array and parameter the C call takes,
    already converted, and the call's arguments from them
    (``st.c_args``, see state_args). The caller checks the chunk's
    dtypes, pointers and index ranges. Returns ``(now, None)`` with the
    last PE's next free cycle, or the cycle of a fault and ``(FAULT_*,
    pe, detail)``.
    """
    tpl = chunk.tpl
    _lib.step_segment(*[tpl[c].ctypes.data for c in TEMPLATE_COLS],
                      *[getattr(chunk, c).ctypes.data for c in CHUNK_ARRAYS],
                      acct.ctypes.data, *st.c_args, now)
    now, code, pe, detail = st.out.tolist()
    return now, (code, pe, detail) if code else None


def end_phase(acct, st, end, barrier):
    """The end cycle of a phase stepped to ``end``, its last PE's free
    cycle, in the run's ledger ``acct`` and engine._State ``st``: after
    the phase's barrier if ``barrier`` (see engine's module docstring).
    Every PE is free from that end, and idles (WFI) in ``acct`` from its
    own free cycle to it, as the stepper charges each cycle before it to
    one column, which SimReport.check_conservation checks. It is C, like
    the stepper: in numpy, a dozen calls over [n_pe] columns, it took
    twice as long on tp gemv 256^2 (about 48 us a phase, against 22).
    """
    # abs_idx, t_free, ready and win lead STATE_ARRAYS
    return _lib.end_phase(acct.ctypes.data, *st.c_args[:4], len(st.abs_idx), st.win.shape[1],
                          end, barrier)
