"""Entry classes for the substrate microbenchmarks.

A plain three-field task entry, registered with the compact codec the
way application entry modules register theirs.  Kept here rather than
borrowed from the test suite, so the bench scripts run with only
``src`` on the path.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.tuplespace import Entry
from repro.util.codec import register_entry


@register_entry
class TaskEntry(Entry):
    def __init__(self, app: Optional[str] = None, task_id: Optional[int] = None,
                 payload: Any = None) -> None:
        self.app = app
        self.task_id = task_id
        self.payload = payload
