"""Per-PE packer, the oracle for ``PlanBuilder.end_phase``'s template groups.

``end_phase`` here writes the barrier through ``PeStream._push``, then
for one PE at a time concatenates the stream's segments, resolves its
addresses and classifies their levels with the division-based oracles
of ``reference_remap``, counts its ops and copies its row into a flat
chunk: a ``FlatChunk`` of ``[n_pe, L]`` columns, the layout that
``PackedChunk.cols`` views a template-form chunk in. It takes the
method's arguments, so a test swaps it in with
``monkeypatch.setattr(PlanBuilder, "end_phase", end_phase)`` and builds
plans unchanged under both, then compares the chunks' ``cols``.
"""

from dataclasses import dataclass

import numpy as np

from dasim._stepper import K_BARRIER, K_COMPUTE, K_LOAD, K_STORE
from dasim.engine import FLAT_COLS, Phase, SimulationFault
from dasim.kernels.plan import C_MAC, STREAM_COLS
from reference_remap import access_levels, resolve_array


@dataclass
class FlatChunk:
    """A phase's ops with each PE's row padded to the longest stream."""

    cols: dict
    n_ops: np.ndarray


def take(stream) -> dict:
    """A stream's accumulated ops as one array per column, cleared from it."""
    segs = stream.segments()
    return {k: np.concatenate([s[k] for s in segs]) if segs else np.zeros(0, dtype=d)
            for k, d in STREAM_COLS.items()}


def _pack(columns, n_pe):
    n_ops = np.array([len(c["kind"]) for c in columns], dtype=np.int64)
    cap = max(1, int(n_ops.max()))
    cols = {name: np.zeros((n_pe, cap), dtype=dtype) for name, dtype in FLAT_COLS.items()}
    for pe, c in enumerate(columns):
        n = n_ops[pe]
        if n:
            for name in FLAT_COLS:
                cols[name][pe, :n] = c[name]
    return FlatChunk(cols=cols, n_ops=n_ops)


def end_phase(self, barrier=True):
    name = self._phase_name
    if name is None:
        raise RuntimeError("no phase open")
    self._phase_name = None
    regions = self.heap.das_regions()
    columns = []
    for pe, stream in enumerate(self.streams):
        if barrier:
            stream._push(K_BARRIER, 0, 0, 0, ())
        col = take(stream)
        addr = col.pop("addr")
        kind = col["kind"]
        mem = (kind == K_LOAD) | (kind == K_STORE)
        col["bank"] = np.zeros(len(kind), dtype=np.uint16)
        col["level"] = np.zeros(len(kind), dtype=np.uint8)
        if mem.any():
            try:
                b, _ = resolve_array(self.topo, regions, addr[mem])
            except ValueError as e:
                raise SimulationFault(f"PE {pe}, phase {name!r}: {e}") from e
            col["bank"][mem] = b
            col["level"][mem] = access_levels(self.topo, pe, b)
        is_comp = kind == K_COMPUTE
        self._counts["macs"] += int(col["arg"][is_comp & (col["cls"] == C_MAC)].sum())
        self._counts["loads"] += int((kind == K_LOAD).sum())
        self._counts["stores"] += int((kind == K_STORE).sum())
        columns.append(col)
    self.phases.append(Phase(name=name, chunks=[_pack(columns, self.topo.n_pes)]))
