"""Group membership, views, failure detection, view-synchronous changes."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "auto_membership": ("MembershipManager", "manage_membership"),
    "failure_detector": ("HeartbeatFailureDetector",),
    "membership": ("GroupMembership", "GroupView"),
    "view_sync": ("ViewChange", "ViewSyncAgent", "attach_view_sync"),
})

__all__ = [
    "GroupMembership",
    "GroupView",
    "HeartbeatFailureDetector",
    "MembershipManager",
    "ViewChange",
    "ViewSyncAgent",
    "attach_view_sync",
    "manage_membership",
]
