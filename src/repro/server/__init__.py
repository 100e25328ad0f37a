"""The central HAM server and its remote client.

The paper (§2.2): "Neptune has a central server which is accessible over
a local area network from a variety of workstations"; the user interface
"communicates with the HAM using a remote procedure call mechanism; the
HAM runs as a separate process, typically on a machine accessed over a
network" (§4.1).

- :mod:`repro.server.protocol` — length-prefixed binary framing over TCP,
  request/response message shapes, value (de)marshalling, and the
  incremental :class:`FrameDecoder` for non-blocking transports.
- :mod:`repro.server.server` — :class:`HAMServer`: an event-driven TCP
  server (selector I/O loop + bounded worker pool) wrapping one HAM or a
  :class:`GraphHost`.  Sessions may pipeline requests; per session,
  read-only operations run concurrently on MVCC snapshots while
  mutations stay ordered.  :class:`ServerConfig` governs the connection
  cap, per-session backpressure, and idle timeouts.  Sessions that
  disconnect mid-transaction have their transactions aborted (the
  paper's "site crashes in the middle of a hypertext transaction" case).
- :mod:`repro.server.client` — :class:`RemoteHAM`: the same API as
  :class:`repro.core.ham.HAM`, executed remotely, with
  :class:`RemoteBatch` queueing many operations into one round trip and
  :class:`RemotePipeline` streaming many requests with futures for the
  replies.

Both dispatchers (server table and client stubs) are derived from the
declarative operation registry in :mod:`repro.core.operations`.
"""

from repro.server.protocol import (
    FrameDecoder,
    encode_message,
    read_message,
    write_message,
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
)
from repro.server.server import HAMServer, ServerConfig
from repro.server.client import (
    BatchFuture,
    PipelineFuture,
    RemoteBatch,
    RemoteHAM,
    RemotePipeline,
    RemoteTransaction,
)
from repro.server.host import GraphHost

__all__ = [
    "GraphHost",
    "FrameDecoder",
    "encode_message",
    "read_message",
    "write_message",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "HAMServer",
    "ServerConfig",
    "RemoteHAM",
    "RemoteBatch",
    "RemotePipeline",
    "PipelineFuture",
    "BatchFuture",
    "RemoteTransaction",
]
