"""Two machines, one cable, raw UDP echo over the descriptor rings.

The peer writes Ethernet+IPv4+UDP frames straight into its transmit
buffers and rings the doorbell; the echo server polls descriptor done
bits, swaps the headers, and sends everything back. Round trips are
measured in virtual nanoseconds on the peer's clock, for both the
kernel-bypass and the kernel-mediated echo path.

Run:  python3 demos/04_udp_echo.py
"""

import random

from capslice.harness import (
    EchoServer,
    EventLoop,
    LoadGenerator,
    PEER_ENDPOINT,
    SUT_ENDPOINT,
    build_machine,
    wire_link,
)
from capslice.nic import FrameLink


def echo_run(mode, payloads, delay_ns=0.0):
    link = FrameLink(delay_ns=1000.0, wire_ns_per_byte=8.0)
    sut = build_machine("sut", mode, SUT_ENDPOINT, link=link)
    peer = build_machine("peer", "bypass", PEER_ENDPOINT, link=link)
    loop = EventLoop()
    server = EchoServer(sut, loop)
    gen = LoadGenerator(peer, loop, payloads, SUT_ENDPOINT,
                        delay_ns=delay_ns, window=8)
    wire_link(loop, link, [server, gen])
    gen.start()
    loop.run()
    return sut, gen


rng = random.Random(2024)
payloads = [rng.randbytes(64) for _ in range(10)]

for mode in ("bypass", "mediated"):
    sut, gen = echo_run(mode, payloads)
    setup_calls = 2 if mode == "bypass" else 0  # attach + map_mmio
    print(f"{mode} echo server")
    print(f"  echoed {gen.received}/{len(payloads)} packets, "
          f"0 corrupted: {gen.mismatches == 0}")
    print(f"  kernel calls during traffic: {sut.kernel.invocations - setup_calls}")
    for k, rtt in enumerate(gen.rtts[:5]):
        print(f"  trial {k}: {rtt:9.1f} ns round trip")
    print(f"  ...  worst {max(gen.rtts):9.1f} ns\n")

print("same frames, same rings; the only difference is who rings the doorbell.")
