"""Exception types shared across the generation pipeline."""

from __future__ import annotations

__all__ = [
    "VulnwpError",
    "IndexUnreadableError",
    "DuplicateIdError",
    "UnparsableVersionError",
    "DictionaryUnavailableError",
    "UnknownCveError",
    "NoImageError",
    "EmptySlugError",
    "NoVulnerableApplicationError",
    "FetchError",
    "BundleWriteError",
    "BootstrapTimeoutError",
    "SetupStepFailedError",
    "UnknownRecordError",
]


class VulnwpError(Exception):
    """Base class for every error raised by this package."""


class IndexUnreadableError(VulnwpError):
    """The exploit index file is missing, unreadable, or malformed."""


class DuplicateIdError(VulnwpError):
    """Two index rows claim the same exploit id."""


class UnparsableVersionError(VulnwpError):
    """Text does not match the version expression grammar."""


class DictionaryUnavailableError(VulnwpError):
    """The CPE dictionary cannot be reached or loaded."""


class UnknownCveError(VulnwpError):
    """The CPE dictionary has no entry for the requested CVE id."""


class NoImageError(VulnwpError):
    """No registry tag satisfies the version constraint at or above the floor,
    or the registry's tag listing failed."""


class EmptySlugError(VulnwpError):
    """A product name reduced to an empty slug."""


class NoVulnerableApplicationError(VulnwpError):
    """Every component source missed; the vulnerable application cannot be obtained."""


class FetchError(VulnwpError):
    """A source was available but materializing it failed unexpectedly.

    Availability misses are not FetchError; they fall through to the next
    source in order. This covers corrupt archives, extraction problems, and
    transport exceptions on a source that claimed to have the payload.
    """


class BundleWriteError(VulnwpError):
    """Writing a bundle file failed."""


class BootstrapTimeoutError(VulnwpError):
    """The environment never answered ready within the probe timeout."""

    def __init__(self, message: str, elapsed: float) -> None:
        super().__init__(message)
        self.elapsed = elapsed


class SetupStepFailedError(VulnwpError):
    """A docker command of the bootstrap (build, start or setup) exited non-zero."""


class UnknownRecordError(VulnwpError):
    """An outcome references an exploit id absent from the corpus."""
