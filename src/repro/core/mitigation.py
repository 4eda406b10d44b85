"""Contention mitigation by request re-ordering (P3, Algorithm 2).

High-contention requests closer than K positions apart in the input
sequence will co-run on the pipeline and interfere.  The mitigation
relocates Low-contention requests in between them, choosing relocations
of minimum total displacement by solving a Linear Assignment Problem
with the Kuhn-Munkres algorithm (Eq. 9-10).

The procedure mirrors Algorithm 2: while conflicting High pairs remain
and assignable Low requests exist, build the cost matrix (``inf`` for
infeasible moves per Eq. 10), solve the LAP, apply the moves, repeat.
Each applied batch strictly reduces the total interleaving deficit, so
the loop terminates; it also stops early when "there is no sufficient L
for selection".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .. import obs
from .assignment import kuhn_munkres
from .window import conflicting_high_pairs, deficit, is_mitigated, violating_windows


@dataclass(frozen=True)
class Move:
    """One applied relocation: request ``item`` moved between an H pair."""

    item: int
    source_position: int
    target_position: int

    @property
    def cost(self) -> int:
        """Displacement distance |j - i| (Eq. 10)."""
        return abs(self.target_position - self.source_position)


@dataclass(frozen=True)
class MitigationResult:
    """Outcome of Algorithm 2 on one request sequence.

    Attributes:
        order: Permutation of the original indices (new execution order).
        moves: Relocations applied, in application order.
        mitigated: True when no window holds >= 2 High requests anymore.
        total_cost: Summed displacement of all moves.
    """

    order: Tuple[int, ...]
    moves: Tuple[Move, ...]
    mitigated: bool
    total_cost: int

    def apply(self, sequence: Sequence) -> List:
        """Reorder an arbitrary parallel sequence by the computed order."""
        if len(sequence) != len(self.order):
            raise ValueError(
                f"sequence length {len(sequence)} != order length {len(self.order)}"
            )
        return [sequence[i] for i in self.order]


def _labels_of(order: Sequence[int], base_labels: Sequence[bool]) -> List[bool]:
    return [base_labels[i] for i in order]


def _creates_new_source_conflict(
    labels: List[bool],
    before_pairs: Sequence[Tuple[int, int]],
    remove_pos: int,
    k: int,
) -> bool:
    """Whether removing the Low request at ``remove_pos`` brings two High
    requests into conflict that were previously separated.

    Depends only on the current label sequence and the removal position
    — not on the relocation slot — so callers evaluate it once per Low
    position, not once per cost-matrix column.

    The comparison is by *pair set*, not conflict count: removing one
    element shifts every position after it down by one, so the
    pre-removal pairs are re-indexed into post-removal coordinates
    first, and any post-removal conflict outside that adjusted set is a
    newly created one.  A count comparison would miss a removal that
    swaps one conflict for a different one at equal count, and a naive
    (unadjusted) set comparison would flag every surviving conflict past
    ``remove_pos`` as new.
    """
    trial = labels[:remove_pos] + labels[remove_pos + 1 :]
    after = set(conflicting_high_pairs(trial, k))
    adjusted_before = {
        (u - (1 if u > remove_pos else 0), v - (1 if v > remove_pos else 0))
        for (u, v) in before_pairs
    }
    return bool(after - adjusted_before)


def mitigate_sequence(labels: Sequence[bool], k: int) -> MitigationResult:
    """Run Algorithm 2 on a High/Low label sequence.

    Args:
        labels: True for High-contention requests, in input order.
        k: Pipeline depth (contention-window size).

    Returns:
        The :class:`MitigationResult`; ``mitigated`` is False when not
        enough Low requests exist to fully separate the High ones.

    Raises:
        ValueError: for an empty sequence or K < 1.
    """
    if not labels:
        raise ValueError("label sequence must be non-empty")
    if k < 1:
        raise ValueError("pipeline depth K must be >= 1")

    n = len(labels)
    # Context-managed so the span closes even when kuhn_munkres or a
    # window helper raises mid-loop (a manually closed span would leak
    # open and corrupt the recorder's span stack).
    with obs.span("plan.mitigate", requests=n, depth=k) as span:
        if obs.enabled():
            obs.add("windows_with_2H", len(violating_windows(labels, k)))

        order: List[int] = list(range(n))
        moves: List[Move] = []
        # Safety bound: one LAP round per request.
        for _ in range(n):
            current = _labels_of(order, labels)
            pairs = conflicting_high_pairs(current, k)
            if not pairs:
                break

            # Build relocation slots: one column per missing Low interleave.
            slots: List[Tuple[int, int]] = []  # (u_pos, v_pos) per needed L
            for pair in pairs:
                slots.extend([pair] * deficit(pair, k))
            lows = [pos for pos, is_high in enumerate(current) if not is_high]
            if not slots or not lows:
                break

            # The source-conflict test depends only on the Low position,
            # never on the slot column: evaluate it once per Low here
            # instead of O(lows x slots) times inside the matrix loop.
            opens_source_conflict = {
                low_pos: _creates_new_source_conflict(
                    current, pairs, low_pos, k
                )
                for low_pos in lows
            }

            # Eq. 10 infeasibilities use a large *finite* sentinel so the LAP
            # still returns the best partial relocation when there are not
            # enough eligible Low requests for every slot ("no sufficient L
            # for selection"); sentinel-cost pairs are discarded afterwards.
            forbidden = float(4 * n)
            cost: List[List[float]] = []
            any_feasible = False
            for low_pos in lows:
                row: List[float] = []
                for (u, v) in slots:
                    # Eq. 10: a Low already inside the pair's contention
                    # neighbourhood cannot increase the separation; and a
                    # move that opens a new conflict at the source is
                    # excluded as well.
                    if u - (k - 1) <= low_pos <= v + (k - 1):
                        row.append(forbidden)
                    elif opens_source_conflict[low_pos]:
                        row.append(forbidden)
                    else:
                        row.append(float(abs(u + 1 - low_pos)))
                        any_feasible = True
                cost.append(row)
            if not any_feasible:
                break  # no sufficient L for selection

            assignment, _total = kuhn_munkres(cost)
            obs.add("lap_rounds")
            assignment = [
                (i, j) for i, j in assignment if cost[i][j] < forbidden
            ]
            obs.add("lap_assignments", len(assignment))
            if not assignment:
                break

            # Apply moves by item identity so earlier moves don't invalidate
            # later positions.  Each move inserts the Low right after u.
            progressed = False
            for low_idx, slot_idx in assignment:
                low_item = order[lows[low_idx]]
                u_pos, v_pos = slots[slot_idx]
                u_item = order[u_pos]
                src = order.index(low_item)
                # Re-check the move still helps under the mutated order.
                trial = order[:src] + order[src + 1 :]
                dst = trial.index(u_item) + 1
                trial.insert(dst, low_item)
                before = len(
                    conflicting_high_pairs(_labels_of(order, labels), k)
                )
                after = len(
                    conflicting_high_pairs(_labels_of(trial, labels), k)
                )
                before_deficit = sum(
                    deficit(p, k)
                    for p in conflicting_high_pairs(_labels_of(order, labels), k)
                )
                after_deficit = sum(
                    deficit(p, k)
                    for p in conflicting_high_pairs(_labels_of(trial, labels), k)
                )
                if after < before or after_deficit < before_deficit:
                    order = trial
                    moves.append(
                        Move(
                            item=low_item,
                            source_position=src,
                            target_position=dst,
                        )
                    )
                    progressed = True
            if not progressed:
                break

        final_labels = _labels_of(order, labels)
        result = MitigationResult(
            order=tuple(order),
            moves=tuple(moves),
            mitigated=is_mitigated(final_labels, k),
            total_cost=sum(m.cost for m in moves),
        )
        span.set(
            moves=len(result.moves),
            mitigated=result.mitigated,
            total_cost=result.total_cost,
        )
    return result
