"""Operation tallies: the currency between kernels and the cost model.

The paper measures performance and energy on real Badge4 hardware.  Our
substitute is deterministic: every kernel (decoder stage, library
element, generated residual code) *executes for real* in Python and, as
it runs, accounts the operations the equivalent C code would execute on
the StrongARM.  A :class:`OperationTally` holds those counts; the
processor model prices them in cycles and the energy model in Joules.

Counts are bulk-incremented per stage invocation with formulas that
mirror the actual loop trip counts — identical results to per-iteration
increments at a fraction of the Python cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["OperationTally"]


@dataclass
class OperationTally:
    """Counts of dynamic operations, by class.

    ``fp_*`` are single/double-precision floating-point operations; on a
    processor without an FPU (the SA-1110) the cost model prices them at
    software-emulation rates.  ``libm_calls`` tracks calls into the math
    library by function name (``pow``, ``cos``, ...), each with its own
    characterized cost.
    """

    int_alu: int = 0          # integer add/sub/logic
    int_mul: int = 0          # integer multiply
    int_mac: int = 0          # integer multiply-accumulate
    int_div: int = 0          # integer divide (software on ARM)
    shift: int = 0            # barrel-shifter ops priced like ALU ops
    fp_add: int = 0
    fp_mul: int = 0
    fp_div: int = 0
    load: int = 0
    store: int = 0
    branch: int = 0
    call: int = 0             # function-call/return overhead events
    libm_calls: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def libm(self, name: str, count: int = 1) -> None:
        """Record ``count`` calls to math-library function ``name``."""
        if count:
            self.libm_calls[name] = self.libm_calls.get(name, 0) + count

    def merge(self, other: "OperationTally") -> None:
        """Accumulate ``other`` into this tally in place."""
        for f in fields(self):
            if f.name == "libm_calls":
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for name, count in other.libm_calls.items():
            self.libm_calls[name] = self.libm_calls.get(name, 0) + count

    def scaled(self, factor: int) -> "OperationTally":
        """A new tally with every count multiplied by ``factor``."""
        out = OperationTally()
        for f in fields(self):
            if f.name == "libm_calls":
                continue
            setattr(out, f.name, getattr(self, f.name) * factor)
        out.libm_calls = {k: v * factor for k, v in self.libm_calls.items()}
        return out

    def copy(self) -> "OperationTally":
        """An independent copy."""
        out = OperationTally()
        out.merge(self)
        return out

    def total_ops(self) -> int:
        """Total dynamic operations (libm calls count once each)."""
        total = 0
        for f in fields(self):
            if f.name == "libm_calls":
                continue
            total += getattr(self, f.name)
        return total + sum(self.libm_calls.values())

    def is_empty(self) -> bool:
        """True if nothing has been recorded."""
        return self.total_ops() == 0

    def __add__(self, other: "OperationTally") -> "OperationTally":
        out = self.copy()
        out.merge(other)
        return out
