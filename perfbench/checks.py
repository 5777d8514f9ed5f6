"""Output checks behind the benchmark's ``failed`` count.

Each check returns ``None`` for a correct output or a one-line reason.
An aborted run is a failure: the workloads are sized so that the
Section 4.1 sample guard does not fire.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.reference import CentralizedNearCliqueFinder
from repro.core.result import NearCliqueResult


class Tally:
    """Counts checked operations and keeps the reasons of failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, reason: Optional[str], label: str = "") -> None:
        self.attempted += 1
        if reason:
            self.failures.append(label + reason)


def fingerprint(result: NearCliqueResult) -> Tuple:
    """Labels, sample, abort flag, round and message/bit totals, per-round trace."""
    metrics = result.metrics
    return (
        result.labels,
        result.sample,
        result.aborted,
        metrics.rounds,
        metrics.total_messages,
        metrics.total_bits,
        metrics.max_message_bits,
        [
            (r.round_index, r.messages_sent, r.bits_sent, r.active_nodes)
            for r in metrics.per_round
        ],
    )


def labels_digest(labels: Dict) -> str:
    """A digest of a labelling, so outputs can be compared across processes."""
    return hashlib.sha256(repr(sorted(labels.items())).encode()).hexdigest()


class FindChecker:
    """Checks finds on one graph against the centralized finder.

    The centralized finder runs once per distinct sample, so checking
    repeated finds costs one comparison each.  With
    ``planted=(size, delta)`` the largest cluster must also meet
    Theorem 5.7.
    """

    def __init__(
        self,
        graph,
        epsilon: float,
        planted: Optional[Tuple[int, float]] = None,
    ) -> None:
        self.graph = graph
        self.planted = planted
        self._finder = CentralizedNearCliqueFinder(graph, epsilon)
        self._oracle: Dict[FrozenSet[int], Tuple[str, bool]] = {}

    def check(self, result: NearCliqueResult) -> Optional[str]:
        return self.check_output(
            result.sample, labels_digest(result.labels), result.aborted, result.abort_reason
        )

    def check_output(
        self, sample, digest: str, aborted: bool, abort_reason: Optional[str]
    ) -> Optional[str]:
        """Check a find by its sample and the digest of its labels."""
        if aborted:
            return "aborted: %s" % abort_reason
        sample = frozenset(sample)
        if sample not in self._oracle:
            expected = self._finder.run_with_sample(sample)
            theorem = self.planted is None or expected.meets_theorem_5_7(self.graph, *self.planted)
            self._oracle[sample] = (labels_digest(expected.labels), theorem)
        expected_digest, theorem = self._oracle[sample]
        if digest != expected_digest:
            return "labels differ from the centralized finder on the same sample"
        if not theorem:
            return "largest cluster misses Theorem 5.7's bounds"
        return None


def check_answer(answer: NearCliqueResult, fresh: NearCliqueResult) -> Optional[str]:
    """A service answer against a fresh full run on the same graph and seed."""
    if answer.aborted or fresh.aborted:
        return "aborted: %s" % (answer.abort_reason or fresh.abort_reason)
    if answer.labels != fresh.labels:
        return "labels differ from a fresh full run"
    if answer.sample != fresh.sample:
        return "sample differs from a fresh full run"
    if answer.candidates != fresh.candidates:
        return "candidate sets differ from a fresh full run"
    return None
