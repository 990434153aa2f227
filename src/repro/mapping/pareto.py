"""Multi-objective candidate scoring: Pareto fronts over
(cycles, energy, accuracy).

The paper's block match picks one winner — the cheapest-in-cycles
adequate element.  Across many processors and objectives there is no
single winner: a hand-optimized fixed-point element may cost the
fewest cycles while the double-precision reference element is three
orders of magnitude more accurate, and on a memory-hungry platform a
third element may burn the least energy.  This module keeps *every*
non-dominated candidate:

* :class:`Objectives` — one candidate's (cycles, energy_j, accuracy)
  vector, all minimized, with the standard dominance relation;
* :func:`score_match` — price a block match on a platform: cycles via
  the cycle model, Joules via the board's energy model, accuracy from
  the element's characterized error label;
* :func:`pareto_front` — the non-dominated subset, deterministically
  ordered (ascending cycles, ties by energy, accuracy, element name),
  so cold and warm sweeps emit byte-identical fronts.

Fronts are *derived*, never cached: the cached block-match value is
the platform-priced match list, which depends only on the processor
spec; energy scoring happens in the calling process on demand, so a
changed energy model can never be served stale.

>>> a = Objectives(cycles=100.0, energy_j=1e-6, accuracy=1e-3)
>>> b = Objectives(cycles=200.0, energy_j=2e-6, accuracy=1e-3)
>>> c = Objectives(cycles=300.0, energy_j=3e-6, accuracy=1e-9)
>>> a.dominates(b), a.dominates(c), c.dominates(a)
(True, False, False)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.library.element import LibraryElement
from repro.mapping.match import BlockMatch
from repro.platform.badge4 import Badge4

__all__ = [
    "Objectives",
    "ParetoPoint",
    "BlockParetoResult",
    "score_match",
    "score_element",
    "pareto_front",
]


@dataclass(frozen=True)
class Objectives:
    """One candidate's objective vector; every component is minimized.

    ``accuracy`` is the element's characterized maximum absolute error,
    so *smaller is better* there too — the vector is uniformly
    minimizing and dominance needs no per-axis direction flags.

    ``measured_accuracy`` and ``snr_db`` are filled only by measured
    mappings (``measure=True``): max absolute error and SNR of the
    block's *generated kernel* against the exact float64 reference
    (see :mod:`repro.codegen.verify`).  They are observations, not
    optimization axes — dominance and :meth:`as_tuple` ignore them, so
    measurement can never reorder a front.
    """

    cycles: float
    energy_j: float
    accuracy: float
    measured_accuracy: "float | None" = None
    snr_db: "float | None" = None

    def dominates(self, other: "Objectives") -> bool:
        """Weak dominance with at least one strict improvement."""
        return (
            self.cycles <= other.cycles
            and self.energy_j <= other.energy_j
            and self.accuracy <= other.accuracy
            and (
                self.cycles < other.cycles
                or self.energy_j < other.energy_j
                or self.accuracy < other.accuracy
            )
        )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.cycles, self.energy_j, self.accuracy)


@dataclass(frozen=True)
class ParetoPoint:
    """A non-dominated candidate: the match plus its scored objectives."""

    match: BlockMatch
    objectives: Objectives

    @property
    def element_name(self) -> str:
        return self.match.element.name

    @property
    def library(self) -> str:
        return self.match.element.library

    def __str__(self) -> str:
        o = self.objectives
        return (
            f"{self.element_name}: {o.cycles:.0f} cyc, "
            f"{o.energy_j:.3g} J, err {o.accuracy:.2g}"
        )


@dataclass(frozen=True)
class BlockParetoResult:
    """A block's full multi-objective mapping outcome on one platform.

    ``front`` holds the non-dominated points (see :func:`pareto_front`
    for the ordering guarantee); ``matches`` every adequate match in
    the block match's cycles-ascending order, so :attr:`cycles_winner`
    — the projection the paper's flow uses — reproduces the scalar
    winner exactly, tie-breaks included.
    """

    block_name: str
    platform_name: str
    front: tuple[ParetoPoint, ...]
    matches: tuple[BlockMatch, ...]

    @classmethod
    def from_matches(
        cls,
        block_name: str,
        platform: Badge4,
        matches: Sequence[BlockMatch],
        measure: "Callable[[BlockMatch], tuple[float, float]] | None" = None,
    ) -> "BlockParetoResult":
        """Derive the front from a platform-priced match list.

        The single construction point for the derived-front contract:
        both ``MappingSession.pareto`` and ``MethodologyFlow.sweep`` build
        their results here, so their fronts cannot drift apart.

        ``measure``, when given, maps each match to its measured
        ``(max_error, snr_db)`` (see
        :func:`repro.codegen.verify.match_measurer`); every scored
        point then carries the observation alongside the static
        estimate.  Measurement happens after scoring and never touches
        the dominance axes, so measured and unmeasured fronts hold the
        same points in the same order.
        """
        scored = [ParetoPoint(m, score_match(m, platform)) for m in matches]
        if measure is not None:
            observed = []
            for point in scored:
                error, snr = measure(point.match)
                objectives = replace(
                    point.objectives, measured_accuracy=error, snr_db=snr
                )
                observed.append(ParetoPoint(point.match, objectives))
            scored = observed
        return cls(
            block_name=block_name,
            platform_name=platform.processor.name,
            front=pareto_front(scored),
            matches=tuple(matches),
        )

    @property
    def cycles_winner(self) -> BlockMatch | None:
        """The scalar (cycles-only) winner, identical to ``MappingSession.map``'s."""
        return self.matches[0] if self.matches else None


def score_element(element: LibraryElement, platform: Badge4) -> Objectives:
    """Price one element's per-call cost as an objective vector.

    Delegates to the characterization harness — the one pricing
    convention in the codebase — so Pareto scores can never drift from
    the tables :func:`repro.library.platform_cost_labels` reports.
    """
    from repro.library.characterize import characterize

    ch = characterize(element, platform)
    return Objectives(
        cycles=ch.cycles_per_call,
        energy_j=ch.energy_per_call_j,
        accuracy=element.accuracy,
    )


def score_match(match: BlockMatch, platform: Badge4) -> Objectives:
    """Objective vector of a block match (the matched element's prices)."""
    return score_element(match.element, platform)


def pareto_front(scored: Iterable[ParetoPoint]) -> tuple[ParetoPoint, ...]:
    """The non-dominated subset of ``scored``, canonically ordered.

    Duplicated objective vectors are both kept (neither strictly
    dominates); ordering is ascending (cycles, energy, accuracy,
    element name), so the front's first entry is the fewest-cycles
    *non-dominated* candidate and the whole tuple is independent of
    input order — the byte-parity guarantee the sweep tests pin down.
    Note the scalar projection is a separate contract: on an exact
    (cycles, energy) tie the scalar winner — the block match's name-tiebreak
    choice — can itself be dominated by a more accurate twin and drop
    off the front; :attr:`BlockParetoResult.cycles_winner` preserves
    the scalar answer regardless.
    """
    points = sorted(scored, key=lambda p: (*p.objectives.as_tuple(), p.element_name))
    front = [
        p
        for p in points
        if not any(q.objectives.dominates(p.objectives) for q in points if q is not p)
    ]
    return tuple(front)
