"""Exception hierarchy for the Draco reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class BpfError(ReproError):
    """Base class for BPF assembly/verification/execution errors."""


class BpfVerifyError(BpfError):
    """A BPF program failed static verification (bad jump, no return, ...)."""


class BpfRuntimeError(BpfError):
    """A BPF program faulted at runtime (e.g. out-of-range load offset)."""


class ProfileError(ReproError):
    """A Seccomp profile is malformed or references unknown syscalls."""


class UnknownSyscallError(ProfileError):
    """A syscall name or ID is not present in the syscall table."""

    def __init__(self, ident: object) -> None:
        super().__init__(f"unknown syscall: {ident!r}")
        self.ident = ident


class CuckooInsertError(ReproError):
    """A cuckoo-hash insertion exceeded the relocation threshold.

    The new key *is* resident when this is raised — relocation placed it
    on its first kick — but one previously-resident entry was dropped to
    make that possible (``dropped_key``).  This mirrors Section VII-A:
    "if the cuckoo hashing fails after a threshold number of attempts,
    the OS makes room by evicting one entry."
    """

    def __init__(self, message: str, dropped_key: bytes = b"") -> None:
        super().__init__(message)
        self.dropped_key = dropped_key


class ConfigError(ReproError):
    """An architectural or workload configuration value is invalid."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state (internal invariant)."""


class AnalyticPreconditionError(SimulationError):
    """An exact analytic replay found its precondition broken after the
    fact; the run must be repeated on the exact kernels."""
