"""MPI — the semantics layer (paper Fig. 1a/1c top box).

A deliberately MPI-shaped API (four send modes, blocking/nonblocking,
wildcards, communicators, collectives) implemented over two pluggable
transports:

* the **native** backend: thick MPCI over the Pipes byte stream — extra
  staging copies, interrupt hysteresis (the stack the paper competes
  with), and
* the **MPI-LAPI** backend in its three generations — ``base``,
  ``counters``, ``enhanced`` (paper §4–5).

User code runs inside the simulator, so every potentially blocking call
is a generator: ``yield from comm.send(...)``.
"""

from repro.mpci.match import ANY_SOURCE, ANY_TAG
from repro.mpi.api import Communicator, MpiError, PersistentRequest
from repro.mpi.protocol import (
    BUFFERED,
    EAGER,
    READY,
    RENDEZVOUS,
    STANDARD,
    SYNCHRONOUS,
    select_protocol,
)
from repro.mpi.request import Request, Status
from repro.lazy import lazy_exports

# derived datatypes, topologies and one-sided windows load on first use
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mpi.derived": ("Contiguous", "Indexed", "Vector"),
    "repro.mpi.topology": ("CartComm", "dims_create"),
    "repro.mpi.rma": ("RmaError", "Window", "WindowBuffer", "win_create"),
})

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BUFFERED",
    "CartComm",
    "Communicator",
    "Contiguous",
    "EAGER",
    "Indexed",
    "MpiError",
    "PersistentRequest",
    "READY",
    "RENDEZVOUS",
    "Request",
    "STANDARD",
    "Status",
    "SYNCHRONOUS",
    "Vector",
    "Window",
    "WindowBuffer",
    "RmaError",
    "dims_create",
    "select_protocol",
    "win_create",
]
