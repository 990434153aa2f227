"""``repro.workload`` — target applications as a pluggable registry.

The methodology's "target code" made data: each :class:`Workload`
declares its critical blocks (name, shape, description, frontend
builder) and registers under a short stable key, mirroring the
processor registry.  Every mapping surface — ``MappingSession``
(``map``, ``pareto``, ``verify``, ``sweep``), the CLI (``repro map
--workload jpeg_idct``, ``repro workloads``) and the service
(``/v1/workloads``, the ``workload`` request field) — resolves
workload keys against the default registry built here.

Built-in entries, in registration order:

==============  =====================================================
``mp3``         the paper's MP3 decoder blocks (default)
``dsp``         FIR/IIR + real-FFT DSP kernel suite
``jpeg_idct``   JPEG-style 1-D row and separable 8x8 2-D IDCT
``gsm_mac``     GSM-style MAC loops (LTP correlation, VQ energy)
==============  =====================================================

Every entry passes the generic conformance suite in
``tests/workload/conformance.py``; registering a new workload means
subclassing :class:`Workload` and calling :func:`register_workload` —
the suite picks it up automatically.
"""

from repro.workload.dsp import DspKernelsWorkload
from repro.workload.gsm import GsmMacWorkload
from repro.workload.jpeg import JpegIdctWorkload
from repro.workload.mp3 import Mp3Workload
from repro.workload.registry import (
    DEFAULT_WORKLOAD,
    DEFAULT_WORKLOAD_REGISTRY,
    BlockSpec,
    Workload,
    WorkloadEntry,
    WorkloadRegistry,
    get_workload,
    register_workload,
    registered_workloads,
    workload_named,
)

__all__ = [
    "DEFAULT_WORKLOAD",
    "DEFAULT_WORKLOAD_REGISTRY",
    "BlockSpec",
    "Workload",
    "WorkloadEntry",
    "WorkloadRegistry",
    "get_workload",
    "register_workload",
    "registered_workloads",
    "workload_named",
]

# The built-in catalog, MP3 first (the default workload).
if "mp3" not in DEFAULT_WORKLOAD_REGISTRY:
    register_workload(Mp3Workload())
    register_workload(DspKernelsWorkload())
    register_workload(JpegIdctWorkload())
    register_workload(GsmMacWorkload())
