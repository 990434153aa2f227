"""The pluggable processor registry: platforms as first-class catalog.

The paper prices everything against one target — the SA-1110 inside
the HP BadgE4.  The multi-platform sweep asks the same symbolic flow
"which library implementation wins on *this* processor, for *this*
objective" across many targets at once, which needs the targets to be
data, not code: a registry of :class:`~repro.platform.processor.ProcessorSpec`
entries, each paired with the :class:`~repro.platform.energy.EnergyModel`
of its board, instantiable into a full platform object on demand.

The default registry ships the SA-1110 (still the default — every
single-platform code path is unchanged) plus an ARM7TDMI-class core,
an ARM926EJ-S-class core, and a generic fixed-point DSP, each with its
own per-op cycle and energy tables.  Registering a custom processor is
one call:

>>> from repro.platform import registry
>>> sorted(registry.registered_processors())[0]
'ARM7TDMI'
>>> registry.platform_named("SA-1110").processor.name
'StrongARM SA-1110'
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlatformError
from repro.platform.badge4 import Badge4
from repro.platform.energy import (ARM7TDMI_ENERGY, ARM926_ENERGY,
                                   BADGE4_ENERGY, GENERIC_DSP_ENERGY,
                                   EnergyModel)
from repro.platform.processor import (ARM7TDMI, ARM926, GENERIC_DSP, SA1110,
                                      ProcessorSpec)

__all__ = ["PlatformEntry", "ProcessorRegistry", "DEFAULT_REGISTRY",
           "register_processor", "get_processor", "platform_named",
           "registered_processors", "duplicate_labels"]


def duplicate_labels(labels) -> list[str]:
    """Sorted labels appearing more than once in ``labels``.

    The shared guard behind every label-indexed report: both the
    platform selection (:meth:`ProcessorRegistry.resolve`) and the
    sweep's library list reject duplicates through this, so their
    semantics cannot drift.
    """
    seen: set[str] = set()
    duplicates: set[str] = set()
    for label in labels:
        if label in seen:
            duplicates.add(label)
        seen.add(label)
    return sorted(duplicates)


@dataclass(frozen=True)
class PlatformEntry:
    """One registered target: a processor spec plus its board's energy model."""

    key: str
    spec: ProcessorSpec
    energy: EnergyModel

    def platform(self) -> Badge4:
        """A fresh platform object wired with this entry's models."""
        return Badge4(processor=self.spec, energy=self.energy)


class ProcessorRegistry:
    """A named catalog of processor targets.

    Keys are short stable handles (``"SA-1110"``, ``"ARM7TDMI"``, ...)
    independent of the specs' display names; iteration order is
    registration order, so sweeps over "all registered platforms" are
    deterministic.
    """

    def __init__(self) -> None:
        self._entries: dict[str, PlatformEntry] = {}

    def register(self, key: str, spec: ProcessorSpec,
                 energy: EnergyModel | None = None, *,
                 replace: bool = False) -> PlatformEntry:
        """Add (or, with ``replace=True``, overwrite) a target.

        ``energy`` defaults to the Badge4 board model, which keeps ad-hoc
        spec experiments one-liner-cheap; real targets should bring the
        board they live on.
        """
        if not key:
            raise PlatformError("registry key must be non-empty")
        if key in self._entries and not replace:
            raise PlatformError(
                f"processor {key!r} is already registered "
                f"(pass replace=True to overwrite)")
        entry = PlatformEntry(key, spec, energy or BADGE4_ENERGY)
        self._entries[key] = entry
        return entry

    def get(self, key: str) -> PlatformEntry:
        """The entry registered under ``key`` (raises on unknown keys)."""
        try:
            return self._entries[key]
        except KeyError:
            known = ", ".join(self._entries) or "<empty registry>"
            raise PlatformError(
                f"no processor registered as {key!r}; known: {known}") from None

    def platform(self, key: str) -> Badge4:
        """A fresh platform instance for the target ``key``."""
        return self.get(key).platform()

    def names(self) -> list[str]:
        """Registered keys, in registration order."""
        return list(self._entries)

    def label_for(self, platform: Badge4) -> str:
        """The registry key of a live platform, if *both* its spec and
        energy model are the registered ones; the processor's display
        name otherwise.

        Keeps labels consistent between the two ways of naming a sweep
        target — ``sweep(platforms=["SA-1110"])`` and
        ``sweep(platforms=[Badge4()])`` land on the same label — while
        a platform carrying a customized energy model falls back to the
        display name, so its (differently-priced) results can never be
        confused with the registry entry's under an identical label.
        """
        for key, entry in self._entries.items():
            # Value equality: a spec that crossed a pickle/deepcopy
            # boundary still names the same target.
            if entry.spec == platform.processor \
                    and entry.energy == platform.energy:
                return key
        return platform.processor.name

    def resolve(self, platforms=None) -> "list[tuple[str, Badge4]]":
        """``(label, platform)`` pairs for a mixed platform selection.

        ``platforms`` may hold registry keys (strings) and/or live
        platform objects; ``None`` selects every registered target in
        registration order.  This is the single resolution point of the
        multi-platform entry point (``MappingSession.sweep``), so a
        sweep's labeling can't drift from the registry's.
        """
        if platforms is None:
            return [(key, entry.platform()) for key, entry in
                    self._entries.items()]
        resolved: list[tuple[str, Badge4]] = []
        for p in platforms:
            if isinstance(p, str):
                resolved.append((p, self.platform(p)))
            else:
                resolved.append((self.label_for(p), p))
        duplicates = duplicate_labels(label for label, _ in resolved)
        if duplicates:
            # Reports index results by label; letting two platforms
            # share one would silently conflate their (differently
            # priced) cells.  Register the variants under distinct keys.
            raise PlatformError(
                f"selection resolves to duplicate platform label(s) "
                f"{duplicates}; register each variant under its own key")
        return resolved

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __iter__(self):
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"ProcessorRegistry({self.names()!r})"


#: The process-wide registry, pre-seeded with the built-in targets.
#: The SA-1110 comes first: "all registered platforms" sweeps lead with
#: the paper's processor, and single-platform flows keep it as default.
DEFAULT_REGISTRY = ProcessorRegistry()
DEFAULT_REGISTRY.register("SA-1110", SA1110, BADGE4_ENERGY)
DEFAULT_REGISTRY.register("ARM7TDMI", ARM7TDMI, ARM7TDMI_ENERGY)
DEFAULT_REGISTRY.register("ARM926", ARM926, ARM926_ENERGY)
DEFAULT_REGISTRY.register("DSP", GENERIC_DSP, GENERIC_DSP_ENERGY)


def register_processor(key: str, spec: ProcessorSpec,
                       energy: EnergyModel | None = None, *,
                       replace: bool = False) -> PlatformEntry:
    """Register a target in the default registry (see
    :meth:`ProcessorRegistry.register`)."""
    return DEFAULT_REGISTRY.register(key, spec, energy, replace=replace)


def get_processor(key: str) -> PlatformEntry:
    """The default registry's entry for ``key``."""
    return DEFAULT_REGISTRY.get(key)


def platform_named(key: str) -> Badge4:
    """A fresh platform instance for the default registry's ``key``."""
    return DEFAULT_REGISTRY.platform(key)


def registered_processors() -> list[str]:
    """Keys of the default registry, in registration order."""
    return DEFAULT_REGISTRY.names()
