"""``repro.library`` — library characterization (Section 3.1).

Elements labeled with I/O format, accuracy, performance, energy and a
polynomial representation; a searchable catalog; a characterization
harness that prices elements on the platform model; and the paper's
concrete LM / IH / IPP / REF libraries.
"""

from repro.library.builtin import (full_library, inhouse_library,
                                   ipp_library, linux_math_library,
                                   reference_library)
from repro.library.catalog import Library
from repro.library.characterize import (CharacterizedElement, characterize,
                                        characterize_library)
from repro.library.element import LibraryElement, formal_inputs

__all__ = [
    "LibraryElement", "formal_inputs", "Library",
    "characterize", "characterize_library", "CharacterizedElement",
    "linux_math_library", "inhouse_library", "ipp_library",
    "reference_library", "full_library",
]
