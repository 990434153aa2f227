"""Complex elements vs. MAC decomposition (the paper's related-work contrast).

The paper positions itself against its DATE'02 predecessor: that work
"represent[ed] log and portions of IDCT with polynomials and then
decompos[ed] those into complex processor instructions, such as MAC",
while this paper maps "into as complex [a] software library element as
possible, without resorting to decomposition into processor
instructions when not necessary".

This example shows both ends inside the same framework:

* a MAC-only library (the DATE'02 world): Decompose binds a MAC's
  inputs only to program variables, never to a coefficient, so it
  finds no cover of a Taylor polynomial of ``exp`` cheaper than plain
  Horner code.  With constant operands the Horner form would be four
  multiply-accumulates, ``mac(mac(mac(mac(1/24, x, 1/6), x, 1/2), x,
  1), x, 1)``, at 32 element cycles;
* adding the complex ``fx_exp`` library element makes the whole
  polynomial collapse into a single call, at a fraction of the cost.

Each search prints its cover, then the cover's program: the element
polynomials and the residual lowered to one float64 kernel.

Run:  python examples/mac_decomposition.py

The searches run on a bare ``MappingSession()``: ``REPRO_NO_CACHE=1``
forces a cold run (no disk tier); ``REPRO_CACHE_DIR=<dir>`` re-runs
warm from the persistent tier.
"""

from repro.api import MappingSession
from repro.library import Library, full_library
from repro.mapping import residual_cost, rewrite
from repro.platform import Badge4
from repro.symalg import Polynomial, taylor


def main() -> None:
    session = MappingSession()
    platform = Badge4()
    x = Polynomial.variable("x")
    target = taylor("exp", 4).substitute({"_arg": x})
    print(f"target (degree-4 exp polynomial): {target}")
    print(f"cost if left as generic code: "
          f"{residual_cost(target, platform):,.0f} cycles\n")

    everything = full_library()

    print("--- MAC-only library (the DATE'02 setting) ---")
    mac_only = Library("mac-only", [everything.get("mac")])
    result = session.decompose(target, mac_only, platform, max_depth=4)
    print(f"cover: {result.best.describe()}")
    print(rewrite(result.best, "exp_via_macs").source)
    if result.mapped:
        print(f"elements used: {result.best.element_names()}")
    else:
        print("finding: Decompose binds a MAC's inputs only to program "
              "variables, so no\ncoefficient can be an operand and no "
              "cover beats the generic Horner code.\nWith constant "
              "operands the Horner form is four MACs,\n"
              "mac(mac(mac(mac(1/24, x, 1/6), x, 1/2), x, 1), x, 1), "
              "at 32 element cycles.")
    print(f"total cost: {result.best.total_cycles:,.0f} cycles\n")

    print("--- full library (this paper's setting) ---")
    result = session.decompose(target, everything, platform,
                               accuracy_budget=5e-2)
    print(f"cover: {result.best.describe()}")
    print(rewrite(result.best, "exp_via_library").source)
    print(f"elements used: {result.best.element_names()}")
    print(f"total cost: {result.best.total_cycles:,.0f} cycles")


if __name__ == "__main__":
    main()
