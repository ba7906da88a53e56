"""Figure 1's layering, asserted structurally.

(a) native:   MPI → MPCI → Pipes → HAL → adapter → fabric
(c) MPI-LAPI: MPI → thin MPCI → LAPI → HAL → adapter → fabric

The layers must actually be wired through each other (not just exist),
and the two stacks must NOT share the layer the paper removes/adds.
"""

import pytest

from repro import SPCluster
from repro.hal import Hal
from repro.lapi import Lapi
from repro.mpi.backends import LapiBackend, NativeBackend
from repro.network.adapter import Adapter
from repro.pipes import PipeEndpoint


def test_native_stack_composition():
    cl = SPCluster(2, stack="native")
    for i, backend in enumerate(cl.backends):
        assert isinstance(backend, NativeBackend)
        # MPCI drives the Pipes endpoint...
        assert isinstance(backend.pipes, PipeEndpoint)
        assert backend.pipes.on_packet is not None
        # ...which sits on the HAL, which sits on the adapter
        assert isinstance(backend.pipes.hal, Hal)
        assert isinstance(backend.pipes.hal.adapter, Adapter)
        assert backend.pipes.hal.adapter.node_id == i
        # the native stack has no LAPI
        assert cl.lapis[i] is None
        # native packet headers are the small MPCI/pipe headers
        assert backend.pipes.hal.header_bytes == cl.params.native_header_bytes


def test_mpi_lapi_stack_composition():
    cl = SPCluster(2, stack="lapi-enhanced")
    for i, backend in enumerate(cl.backends):
        assert isinstance(backend, LapiBackend)
        # thin MPCI sits on LAPI
        assert isinstance(backend.lapi, Lapi)
        # LAPI replaced the Pipes layer entirely (Fig 1c)
        assert cl.pipes[i] is None
        # LAPI sits on the same HAL/adapter substrate
        assert isinstance(backend.lapi.hal, Hal)
        assert backend.lapi.hal.adapter.node_id == i
        # MPI-LAPI pays the larger LAPI header (paper §6.1)
        assert backend.lapi.hal.header_bytes == cl.params.lapi_header_bytes
        # the MPI protocol handlers are registered with LAPI
        for hh in ("mpi_eager", "mpi_rts", "mpi_rts_ack", "mpi_rdata", "mpi_bfree"):
            assert hh in backend.lapi._handlers


def test_both_stacks_share_matching_machinery():
    """The paper keeps MPCI's matching semantics in both stacks."""
    from repro.mpci import EarlyArrivalQueue, Matcher, PostedReceiveQueue
    from repro.mpi.backends import Backend, LapiBackend, NativeBackend

    for stack in ("native", "lapi-enhanced"):
        cl = SPCluster(2, stack=stack)
        b = cl.backends[0]
        assert isinstance(b.matcher, Matcher)
        assert isinstance(b.matcher.posted, PostedReceiveQueue)
        assert isinstance(b.matcher.early, EarlyArrivalQueue)
    # one receive path: the stacks alias the shared irecv, not override it
    assert NativeBackend.irecv is Backend.irecv
    assert LapiBackend.irecv is Backend.irecv


def test_raw_lapi_has_no_mpi_layer():
    cl = SPCluster(2, stack="raw-lapi")
    assert cl.backends == []
    assert all(isinstance(l, Lapi) for l in cl.lapis)
    assert all(c is None for c in cl.comms)


def test_enhanced_flag_reaches_lapi():
    assert SPCluster(2, stack="lapi-enhanced").lapis[0].enhanced
    assert not SPCluster(2, stack="lapi-base").lapis[0].enhanced
    assert not SPCluster(2, stack="lapi-counters").lapis[0].enhanced
