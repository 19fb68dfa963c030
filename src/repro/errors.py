"""Exception hierarchy shared across the PASTA reproduction.

Every package raises errors that derive from :class:`ReproError` so callers can
catch framework-level failures without masking programming errors (``TypeError``
and friends are deliberately left alone).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the reproduction library."""


class GpuSimError(ReproError):
    """Base class for errors raised by the GPU simulator substrate."""


class DeviceError(GpuSimError):
    """Raised for invalid device configuration or device selection."""


class OutOfMemoryError(GpuSimError):
    """Raised when a device allocation cannot be satisfied.

    Mirrors ``cudaErrorMemoryAllocation`` / ``hipErrorOutOfMemory``.
    """


class InvalidAddressError(GpuSimError):
    """Raised when an access references memory outside any live allocation."""


class StreamError(GpuSimError):
    """Raised for invalid stream or event operations."""


class KernelError(GpuSimError):
    """Raised when a kernel launch is malformed (e.g. empty grid)."""


class UvmError(GpuSimError):
    """Raised for invalid unified-virtual-memory operations."""


class FrameworkError(ReproError):
    """Base class for errors raised by the DL framework substrate."""


class AllocatorError(FrameworkError):
    """Raised when the caching allocator is misused (double free, etc.)."""


class ShapeError(FrameworkError):
    """Raised when tensor shapes are incompatible for an operator."""


class ModelError(FrameworkError):
    """Raised for invalid model configuration."""


class RegistryError(ReproError):
    """Raised for registry namespace configuration and lookup problems."""


class PastaError(ReproError):
    """Base class for errors raised by the PASTA core framework."""


class HandlerError(PastaError):
    """Raised for event-handler configuration problems."""


class ToolError(PastaError):
    """Raised for tool registration / selection problems."""


class AnnotationError(PastaError):
    """Raised for unbalanced or misused ``pasta.start()`` / ``pasta.stop()``."""


class VendorError(ReproError):
    """Base class for errors raised by simulated vendor profiling backends."""


class TraceError(ReproError):
    """Base class for errors raised by the trace record/replay subsystem."""


class TraceFormatError(TraceError):
    """Raised when a trace file is malformed or uses an unsupported format."""


class TraceSchemaError(TraceFormatError):
    """Raised when a trace was recorded under incompatible event schemas."""
