"""Library characterization harness (Section 3.1).

Prices every element's per-call tally on a platform (performance via
the cycle model, energy via the energy model) — the performance and
energy columns of the paper's Table 1.  Accuracy is the element's
declared label; nothing here measures it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.library.catalog import Library
from repro.library.element import LibraryElement
from repro.platform.badge4 import Badge4

__all__ = ["CharacterizedElement", "characterize", "characterize_library"]


@dataclass(frozen=True)
class CharacterizedElement:
    """An element plus its platform-specific numbers."""

    element: LibraryElement
    seconds_per_call: float
    energy_per_call_j: float
    cycles_per_call: float

    @property
    def name(self) -> str:
        return self.element.name

    @property
    def library(self) -> str:
        return self.element.library


def characterize(element: LibraryElement,
                 platform: Badge4 | None = None) -> CharacterizedElement:
    """Price one element on a platform."""
    platform = platform or Badge4()
    cycles = platform.cost_model.cycles(element.cost)
    seconds = platform.cost_model.seconds(element.cost)
    energy = platform.energy.energy(element.cost, platform.cost_model)
    return CharacterizedElement(element, seconds, energy, cycles)


def characterize_library(library: Library,
                         platform: Badge4 | None = None
                         ) -> dict[str, CharacterizedElement]:
    """Characterize every element; keyed by element name."""
    platform = platform or Badge4()
    return {e.name: characterize(e, platform) for e in library}
