"""Verification as a service: async campaign server + durable store.

The one-shot CLI runs a campaign and prints a report; this package
makes the same campaigns *submittable*: a durable SQLite-backed job
queue and result store (:mod:`.store`), an asyncio scheduler that
drains it onto the existing :class:`~repro.parallel.CampaignExecutor`
(:mod:`.server`), canonical config fingerprints for content dedup
(:mod:`.fingerprint`), and the shared deterministic renderers that keep
stored reports byte-identical to the CLI's (:mod:`.render`).  See
``docs/architecture.md`` ("Verification as a service").
"""

from .catalog import (
    CONFIGS,
    DUTS,
    PLATFORMS,
    SUBMISSION_KINDS,
    Submission,
    build_submission,
)
from .client import InProcessClient, ServiceClient, ServiceError
from .fingerprint import canonical_document, config_fingerprint
from .render import (
    fuzz_footer_lines,
    fuzz_job_lines,
    render_fuzz,
    render_ladder,
)
from .server import (
    CampaignService,
    RateLimited,
    ServiceOverloaded,
    ServiceServer,
    TokenBucket,
)
from .store import STATES, TERMINAL_STATES, CampaignRow, ServiceStore

__all__ = [
    "CONFIGS",
    "CampaignRow",
    "CampaignService",
    "DUTS",
    "InProcessClient",
    "PLATFORMS",
    "RateLimited",
    "STATES",
    "SUBMISSION_KINDS",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceServer",
    "ServiceStore",
    "Submission",
    "TERMINAL_STATES",
    "TokenBucket",
    "build_submission",
    "canonical_document",
    "config_fingerprint",
    "fuzz_footer_lines",
    "fuzz_job_lines",
    "render_fuzz",
    "render_ladder",
]
