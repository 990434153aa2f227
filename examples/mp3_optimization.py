"""The full Section 4 evaluation: optimize the MP3 decoder.

Runs the complete three-step methodology (characterize -> identify ->
map) over the library ladder the paper uses — reference only, then
Linux-math + in-house, then + IPP — printing the per-pass profiles
(Tables 3, 4, 5) and the overall speedup/energy ladder (Table 6's
trajectory), with the compliance level verified at each step.

Run:  python examples/mp3_optimization.py  [n_frames]

Environment knobs (reproducible numbers without editing code), read by
the bare ``MappingSession()`` the flow runs on:
``REPRO_NO_CACHE=1`` forces a cold run (disables persistence);
``REPRO_CACHE_DIR=<dir>`` warms/uses the persistent disk tier.
Each pass submits its critical blocks to the batch engine at once;
cold block matches are computed serially in-process (see
``repro.mapping.batch.run_batch``).
"""

import sys

from repro.api import MappingSession
from repro.mp3 import make_stream


def main() -> None:
    n_frames = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    stream = make_stream(n_frames=n_frames, seed=2002)
    print(f"synthetic stream: {n_frames} frames, "
          f"{stream.duration_seconds:.2f} s of audio, "
          f"{len(stream.data)} bytes\n")

    report = MappingSession().flow().run_passes(stream)

    for pass_result in report.passes:
        title = f"Profile after {pass_result.name}"
        print(pass_result.profile.format_table(title, time_unit="ms"))
        print(f"  compliance: {pass_result.compliance.level} "
              f"(rms={pass_result.compliance.rms_error:.2e})")
        if pass_result.chosen_elements:
            print("  mapped elements:")
            for target, element in pass_result.chosen_elements.items():
                print(f"    {target:<24} -> {element}")
        print()

    print("Overall ladder (cf. Table 6):")
    print(f"  {'version':<24} {'perf factor':>12} {'energy factor':>14}")
    for name, perf, energy in report.speedup_ladder():
        print(f"  {name:<24} {perf:>12.1f} {energy:>14.1f}")

    final = report.passes[-1]
    realtime = stream.duration_seconds / final.seconds
    print(f"\nfinal decoder runs {realtime:.1f}x faster than real time "
          f"(the paper reports ~3.5-4x; ours is faster because the whole-"
          f"application overhead of the badge is not modeled)")


if __name__ == "__main__":
    main()
