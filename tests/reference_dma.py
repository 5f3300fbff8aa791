"""Python model of the DMA backends, the oracle for the stepper's DMA booking.

A transfer is a list of (backend, words) segments. Once started, it
waits the L2 initiation latency; then each segment queues on its
backend in FIFO order. Segments to distinct backends proceed in
parallel, and the transfer is complete when its last segment lands.
"""

from dataclasses import dataclass, field

from dasim.engine import SimulationFault


def transfer_cycles(words: int, words_per_cycle: int) -> int:
    """Backend occupancy of one segment."""
    return -(-words // words_per_cycle)


@dataclass
class DmaState:
    """Backend availability plus completion times of started transfers."""

    backend_next_free: list
    completed: dict = field(default_factory=dict)


def dma_advance(params, state: DmaState, tid: int, transfer,
                start_cycle: int) -> DmaState:
    """Book started transfer ``tid`` onto its backends; returns the new state."""
    nxt = list(state.backend_next_free)
    base = start_cycle + params.l2_latency
    done = base
    for backend, words in transfer.segments:
        st = max(nxt[backend], base)
        nxt[backend] = st + transfer_cycles(words, params.dma_words_per_cycle)
        done = max(done, nxt[backend])
    completed = dict(state.completed)
    if tid in completed:
        raise SimulationFault(f"transfer {tid} started twice")
    completed[tid] = done
    return DmaState(backend_next_free=nxt, completed=completed)
