"""The library catalog: a searchable set of characterized elements."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import LibraryError
from repro.library.element import LibraryElement

__all__ = ["Library"]


class Library:
    """A collection of :class:`LibraryElement` with lookup helpers.

    Libraries combine: ``Library.union(lm, ih, ipp)`` models the paper's
    successive mapping passes (first LM+IH, then LM+IH+IPP).
    """

    def __init__(self, name: str, elements: Iterable[LibraryElement] = ()):
        self.name = name
        self._elements: dict[str, LibraryElement] = {}
        for element in elements:
            self.add(element)

    def add(self, element: LibraryElement) -> None:
        if element.name in self._elements:
            raise LibraryError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element

    def __iter__(self) -> Iterator[LibraryElement]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def get(self, name: str) -> LibraryElement:
        if name not in self._elements:
            raise LibraryError(f"no element named {name!r} in library {self.name}")
        return self._elements[name]

    def implementations_of(self, function: str) -> list[LibraryElement]:
        """Elements whose name advertises ``function`` (e.g. all four logs)."""
        return [e for e in self if function.lower() in e.name.lower()]

    @classmethod
    def union(cls, *libraries: "Library") -> "Library":
        """Combine libraries (later ones must not collide by name)."""
        name = "+".join(lib.name for lib in libraries)
        combined = cls(name)
        for lib in libraries:
            for element in lib:
                combined.add(element)
        return combined

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self)} elements)"
