"""``repro.server`` — the campaign server and its client (DESIGN §5h).

A long-lived ``repro serve`` process accepts concurrent campaign
submissions over a newline-delimited-JSON TCP protocol, runs each on
the serial/thread/process engine its config names with its own
:class:`~repro.harness.engine.CancelToken`, streams ``repro.obs.live``
records to ``tail`` clients, and journals every campaign so a killed
server resumes cleanly.
"""

from repro.server.app import (
    DEFAULT_PORT,
    Campaign,
    CampaignServer,
    ServerHandle,
    serve_in_thread,
)
from repro.server.client import (
    CampaignClient,
    ServerError,
    parse_address,
)
from repro.server.protocol import (
    EXIT_CANCELLED,
    EXIT_DONE,
    EXIT_FAILED,
    EXIT_FAILURES,
    REPORT_FORMATS,
    SERVER_FORMAT,
    STATES,
    ProtocolError,
    normalize_spec,
    state_exit_code,
)

__all__ = [
    "DEFAULT_PORT",
    "Campaign",
    "CampaignServer",
    "ServerHandle",
    "serve_in_thread",
    "CampaignClient",
    "ServerError",
    "parse_address",
    "EXIT_CANCELLED",
    "EXIT_DONE",
    "EXIT_FAILED",
    "EXIT_FAILURES",
    "REPORT_FORMATS",
    "SERVER_FORMAT",
    "STATES",
    "ProtocolError",
    "normalize_spec",
    "state_exit_code",
]
