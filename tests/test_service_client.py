"""The stream client's own connection hygiene.

A handshake the server refuses ends the stream with
:class:`~repro.service.client.StreamError`; the connection it was made on
must be closed first, not left for the garbage collector (which warns
``unclosed <StreamWriter ...>``).
"""

from __future__ import annotations

import asyncio
import gc
import warnings

import pytest

from repro.service.client import StreamError, stream_trace
from repro.service.store import MAX_NAME_BYTES

from conftest import make_trace
from service_utils import serving


def test_refused_hello_closes_its_connection(tmp_path):
    trace = make_trace(5)

    async def go():
        async with serving(tmp_path) as server:
            with pytest.raises(StreamError, match="HELLO rejected"):
                await stream_trace(trace, "127.0.0.1", server.port,
                                   "v" * (MAX_NAME_BYTES + 1))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        asyncio.run(go())
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert leaks == []
