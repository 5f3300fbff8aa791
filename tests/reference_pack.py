"""Per-PE packer, the oracle for ``PlanBuilder.end_phase``'s copy table.

``end_phase`` here rebuilds each PE's ops in stream order from the
builder's copy table, one copy at a time (``stream_ops``). Then for one
PE at a time it resolves the addresses and classifies their levels with
the division-based oracles of ``reference_remap``, counts its ops and
copies its row into a flat chunk: a ``FlatChunk`` of ``[n_pe, L]`` columns, the layout that
``PackedChunk.cols`` views a template-form chunk in, in a phase that
ends in a barrier unless told not to (``Phase.barrier``). It takes the
method's arguments, so a test swaps it in with
``monkeypatch.setattr(PlanBuilder, "end_phase", end_phase)`` and builds
plans unchanged under both, then compares the chunks' ``cols``.
"""

from dataclasses import dataclass

import numpy as np

from dasim._stepper import K_COMPUTE, K_LOAD, K_STORE
from dasim.engine import FLAT_COLS, Phase, SimulationFault
from dasim.kernels.plan import C_MAC, STREAM_COLS
from reference_remap import access_levels, resolve_array


@dataclass
class FlatChunk:
    """A phase's ops with each PE's row padded to the longest stream."""

    cols: dict
    n_ops: np.ndarray


def stream_ops(pb) -> list:
    """Each PE's ops of the open phase, in stream order, as one array per
    STREAM_COLS column: its copies entry by entry, item by item, then
    the ops it pushed one at a time since the last entry. A table row
    holds an address per load and store; every other op's is 0."""
    copies = [[] for _ in range(len(pb.streams))]
    for template, pes, addr in pb._table:
        mem = (template["kind"] == K_LOAD) | (template["kind"] == K_STORE)
        for pe, row in zip(pes.tolist(), addr):
            ops = np.zeros(len(mem), dtype=np.int64)
            ops[mem] = row
            copies[pe].append({**template, "addr": ops})
    for pe, cols in pb._singles.items():
        copies[pe].append(cols)
    return [{k: np.concatenate([np.zeros(0, dtype=d)] + [c[k] for c in cs]).astype(d)
             for k, d in STREAM_COLS.items()} for cs in copies]


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
    for pe, col in enumerate(stream_ops(self)):
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
    self._table, self._singles = [], {}
    self._n += barrier
    self.phases.append(Phase(name=name, chunks=[_pack(columns, self.topo.n_pes)],
                             barrier=barrier))
