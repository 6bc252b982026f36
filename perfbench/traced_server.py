"""``repro-xpath`` with layer wrappers, for the traced serve-open run.

Runs the program's own command line (``serve run ...`` in practice) after
registering the same wrappers ``layers.py`` installs in-process, plus timed
JSON decode/encode in the protocol module.  Tracing starts off; the client
switches it with the extra NDJSON op ``{"op": "bench.trace", "on": true}``,
whose reply carries the tracer's totals so far.  The op is mounted through
the protocol server's public ``extensions`` hook; nothing in the program
changes.

    PYTHONPATH=src:perfbench python3 perfbench/traced_server.py serve run --dir DIR --port 0
"""

from __future__ import annotations

import sys
import types

from layers import Tracer, register_program_layers


def register_protocol_layer(tracer: Tracer) -> None:
    """Time the protocol module's JSON decode and encode."""
    import json

    from repro.serve import protocol

    def make(original):
        codec = types.SimpleNamespace(**vars(json))

        def timed(name, function):
            def call(*args, **kwargs):
                with tracer.span(name, "protocol"):
                    return function(*args, **kwargs)

            return call

        codec.loads = timed("protocol.decode", json.loads)
        codec.dumps = timed("protocol.encode", json.dumps)
        return codec

    tracer.patch(protocol, "json", make)


def mount_control_op(tracer: Tracer) -> None:
    """Add the ``bench.trace`` op to every protocol server built from now on."""
    from repro.serve.protocol import ProtocolServer

    build = ProtocolServer.__init__

    async def control(request: dict) -> dict:
        if request.get("reset"):
            tracer.reset()
        if "on" in request:
            (tracer.enable if request["on"] else tracer.disable)()
        return {"enabled": tracer.enabled, **tracer.totals()}

    def init(self, server, *, session=None, extensions=None):
        build(self, server, session=session, extensions={**(extensions or {}), "bench.trace": control})

    ProtocolServer.__init__ = init


def main(argv: list[str]) -> int:
    tracer = Tracer()
    register_program_layers(tracer)
    register_protocol_layer(tracer)
    mount_control_op(tracer)
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
