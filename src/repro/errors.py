"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch every library-originated failure with a single handler
while still being able to distinguish configuration mistakes from runtime
protocol violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation engine detected an invalid operation."""


class SchedulerStoppedError(SimulationError):
    """An event was scheduled on a scheduler that has already stopped."""


class CausalityViolationError(ReproError):
    """A message was delivered before one of its causal predecessors.

    Raised by the causal-delivery verifier in :mod:`repro.analysis` and by
    broadcast protocols running with paranoid checks enabled.
    """


class DependencyError(ReproError):
    """An invalid dependency was declared on a message graph.

    Examples: a cycle in the ``Occurs-After`` relation, a dependency on a
    label that can never exist, or a duplicate message label.
    """


class MembershipError(ReproError):
    """A group-membership operation referenced an unknown or dead member."""


class ProtocolError(ReproError):
    """A broadcast or data-access protocol received an ill-formed message."""


class InconsistencyDetected(ReproError):
    """An application-level consistency check failed.

    The application-specific protocols of Section 5.2 of the paper detect
    stale operations (e.g. a query ordered against an outdated set of
    updates) and either discard them or raise this error, depending on the
    configured policy.
    """
