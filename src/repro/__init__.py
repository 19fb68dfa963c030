"""PASTA reproduction: a modular program-analysis tool framework for accelerators.

The public surface is the unified profiling API (:mod:`repro.api`)::

    from repro import pasta

    reports = (pasta.profile("gpt2")
                    .on("a100")
                    .mode("train")
                    .with_tools("hotness", "access_histogram")
                    .record("trace.pasta")
                    .run()
                    .reports())

or, without the builder::

    from repro import ProfileSpec, run

    result = run("resnet18", tools=["kernel_frequency"], batch_size=2)

Package layout
--------------
* :mod:`repro.api` — the one profiling API: :class:`ProfileSpec`, the fluent
  builder, and the single execution path behind live runs, trace recording,
  offline replay and campaigns.
* :mod:`repro.core` — the PASTA framework itself (event handler, event
  processor, tool collection template, session, annotations, knobs, and the
  multi-namespace plugin registry).
* :mod:`repro.gpusim` — simulated GPU devices, runtimes, UVM and cost models.
* :mod:`repro.vendors` — simulated vendor profiling backends (Compute
  Sanitizer, NVBit, ROCProfiler-SDK).
* :mod:`repro.dlframework` — simulated DL framework (tensors, caching
  allocator, operators, model zoo, parallelism).
* :mod:`repro.tools` — analysis tools built with PASTA (the paper's case
  studies).
* :mod:`repro.campaign` — batched experiment campaigns with caching.
* :mod:`repro.serve` — profiling as a service: the ``pasta serve`` daemon,
  its JSONL job API, and the ``pasta.connect(url)`` remote client.
* :mod:`repro.replay` — trace record & replay (persistent event streams with
  offline analysis).
* :mod:`repro.pasta` — the user facade (``pasta.profile()``, ``pasta.run()``,
  ``pasta.start()/stop()`` annotations).
"""

from repro import pasta
from repro.pasta import connect
from repro.api import (
    ParallelismSpec,
    ParallelProfileResult,
    ProfileBuilder,
    ProfileResult,
    ProfileSpec,
    profile,
    replay,
    run,
)
from repro.core.registry import (
    REGISTRY,
    Registry,
    create_tool,
    discover_plugins,
    register_tool,
    registered_tools,
)
from repro.core.session import PastaSession
from repro.core.tool import PastaTool
from repro.errors import PastaError, ReproError

__version__ = "2.0.0"

__all__ = [
    "ParallelProfileResult",
    "ParallelismSpec",
    "PastaError",
    "PastaSession",
    "PastaTool",
    "ProfileBuilder",
    "ProfileResult",
    "ProfileSpec",
    "REGISTRY",
    "Registry",
    "ReproError",
    "__version__",
    "connect",
    "create_tool",
    "discover_plugins",
    "pasta",
    "profile",
    "register_tool",
    "registered_tools",
    "replay",
    "run",
]
