"""Analytical cost model for profiling overhead (Figures 9 and 10).

The paper compares three implementations of the same memory-characterisation
analysis:

* ``CS-GPU``  — PASTA's GPU-resident collect-and-analyze using Compute
  Sanitizer instrumentation (Figure 8b),
* ``CS-CPU``  — Compute Sanitizer instrumentation with trace transfer and
  single-threaded CPU analysis (Figure 8a), and
* ``NVBIT-CPU`` — NVBit instrumentation (all-SASS patching, with a per-kernel
  dump/parse step) with CPU analysis.

Since no physical GPU is available, this module provides an analytical model
with the same *structure* as the measured costs: a per-record instrumentation
cost on the device, a PCIe transfer term, buffer-full stall rounds, and an
analysis term that is either massively parallel (GPU) or serial (CPU).  The
constants are calibrated so that the relative ordering and rough magnitudes of
the paper's Figure 9 hold (GPU-resident analysis is two to four orders of
magnitude faster than CPU-side analysis, and NVBit-based collection is roughly
an order of magnitude more expensive than Compute Sanitizer's).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.gpusim.device import DeviceSpec
from repro.gpusim.trace import AnalysisModel, TraceBuffer


class InstrumentationBackend(str, Enum):
    """Which vendor instrumentation library produces the fine-grained trace."""

    COMPUTE_SANITIZER = "compute_sanitizer"
    NVBIT = "nvbit"
    ROCPROFILER = "rocprofiler"


@dataclass(frozen=True)
class CostModelConfig:
    """Tunable constants of the overhead model.

    The defaults are calibrated against the qualitative results in the paper;
    tests assert orderings and order-of-magnitude ratios, not exact values.
    """

    #: Serial CPU analysis cost per trace record (address-to-object attribution
    #: plus a map update on a single host thread).  The paper observes that
    #: CPU-side analysis of billions of records takes hours to days, which this
    #: per-record cost reproduces.
    cpu_analysis_ns_per_record: float = 1800.0
    #: Device-side cost to append one record to the trace buffer (charged to
    #: the instrumented kernel in both analysis models).
    collection_ns_per_record: float = 2.0
    #: Per-lane device analysis cost; the effective per-record cost divides by
    #: the number of analysis lanes (one warp lane per SM-resident warp group),
    #: so larger GPUs benefit more from the GPU-resident reducer.
    gpu_analysis_ns_per_record_per_lane: float = 600.0
    #: Host-side stall latency for every buffer-full fetch/flush round.
    flush_round_latency_ns: float = 60_000.0
    #: Per-kernel fixed cost of patching/instrumenting with Compute Sanitizer.
    sanitizer_patch_ns_per_kernel: float = 25_000.0
    #: Per-kernel fixed cost of NVBit SASS dump + parse + injection.
    nvbit_patch_ns_per_kernel: float = 18_000_000.0
    #: NVBit traces every SASS instruction before filtering memory ops, so the
    #: record volume (and collection/analysis cost) is inflated by this factor.
    nvbit_record_multiplier: float = 12.0
    #: Analysis lanes per SM used by the GPU-resident reducer.
    analysis_lanes_per_sm: int = 32
    #: Bytes of the reduced result map copied back per kernel in the
    #: GPU-resident model.
    result_map_bytes: int = 64 * 1024


@dataclass
class ProfilingCost:
    """Decomposed profiling cost for one run (the Figure 10 breakdown)."""

    execution_ns: float = 0.0
    collection_ns: float = 0.0
    transfer_ns: float = 0.0
    analysis_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        """Total profiled wall time."""
        return self.execution_ns + self.collection_ns + self.transfer_ns + self.analysis_ns

    @property
    def overhead_ns(self) -> float:
        """Profiling overhead (everything except workload execution)."""
        return self.total_ns - self.execution_ns

    def normalized_overhead(self) -> float:
        """Overhead relative to uninstrumented execution time (Figure 9's y-axis)."""
        if self.execution_ns <= 0:
            return float("inf")
        return self.overhead_ns / self.execution_ns

    def fractions(self) -> dict[str, float]:
        """Fraction of total time per component (Figure 10's y-axis)."""
        total = self.total_ns
        if total <= 0:
            return {"execution": 0.0, "collection": 0.0, "transfer": 0.0, "analysis": 0.0}
        return {
            "execution": self.execution_ns / total,
            "collection": self.collection_ns / total,
            "transfer": self.transfer_ns / total,
            "analysis": self.analysis_ns / total,
        }

    def __add__(self, other: "ProfilingCost") -> "ProfilingCost":
        return ProfilingCost(
            execution_ns=self.execution_ns + other.execution_ns,
            collection_ns=self.collection_ns + other.collection_ns,
            transfer_ns=self.transfer_ns + other.transfer_ns,
            analysis_ns=self.analysis_ns + other.analysis_ns,
        )


class OverheadModel:
    """Computes :class:`ProfilingCost` for kernels under a profiling configuration."""

    def __init__(self, device_spec: DeviceSpec, config: CostModelConfig | None = None) -> None:
        self.device_spec = device_spec
        self.config = config or CostModelConfig()
        self._trace_buffer = TraceBuffer()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @property
    def analysis_lanes(self) -> int:
        """Number of concurrent device analysis lanes available to PASTA."""
        return max(1, self.device_spec.sm_count * self.config.analysis_lanes_per_sm)

    def _pcie_ns(self, nbytes: float) -> float:
        """Time to move ``nbytes`` across the host interconnect."""
        bandwidth = self.device_spec.pcie_bandwidth_gbs * 1e9  # bytes/s
        return nbytes / bandwidth * 1e9

    def _record_count(self, memory_accesses: int, backend: InstrumentationBackend) -> float:
        if backend is InstrumentationBackend.NVBIT:
            return memory_accesses * self.config.nvbit_record_multiplier
        return float(memory_accesses)

    def _patch_cost_ns(self, backend: InstrumentationBackend) -> float:
        if backend is InstrumentationBackend.NVBIT:
            return self.config.nvbit_patch_ns_per_kernel
        return self.config.sanitizer_patch_ns_per_kernel

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def kernel_cost(
        self,
        kernel_duration_ns: float,
        memory_accesses: int,
        model: AnalysisModel,
        backend: InstrumentationBackend = InstrumentationBackend.COMPUTE_SANITIZER,
    ) -> ProfilingCost:
        """Cost of profiling a single kernel launch.

        Parameters
        ----------
        kernel_duration_ns:
            Uninstrumented execution time of the kernel.
        memory_accesses:
            Number of global-memory access instructions the kernel issues.
        model:
            GPU-resident or CPU-side analysis.
        backend:
            Instrumentation library used to collect the trace.
        """
        cfg = self.config
        records = self._record_count(memory_accesses, backend)
        cost = ProfilingCost(execution_ns=float(kernel_duration_ns))
        cost.collection_ns += self._patch_cost_ns(backend)
        cost.collection_ns += records * cfg.collection_ns_per_record

        if model is AnalysisModel.GPU_RESIDENT:
            # Collection and analysis are fused on the device (Figure 2b): the
            # analysis term rides along with collection, and only the reduced
            # result map crosses PCIe once per kernel.
            per_record = cfg.gpu_analysis_ns_per_record_per_lane / self.analysis_lanes
            cost.collection_ns += records * per_record
            cost.transfer_ns += self._pcie_ns(cfg.result_map_bytes)
        else:
            stats = self._trace_buffer.collect(int(records), AnalysisModel.CPU_SIDE)
            cost.transfer_ns += self._pcie_ns(stats.transferred_bytes)
            cost.transfer_ns += stats.flush_rounds * cfg.flush_round_latency_ns
            cost.analysis_ns += records * cfg.cpu_analysis_ns_per_record
        return cost

    def workload_cost(
        self,
        launches: list[tuple[float, int]],
        model: AnalysisModel,
        backend: InstrumentationBackend = InstrumentationBackend.COMPUTE_SANITIZER,
    ) -> ProfilingCost:
        """Aggregate cost over ``launches`` = [(duration_ns, memory_accesses), ...]."""
        total = ProfilingCost()
        for duration_ns, accesses in launches:
            total = total + self.kernel_cost(duration_ns, accesses, model, backend)
        return total
