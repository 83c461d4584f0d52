"""Minimal Ethernet II + IPv4 + UDP framing and the echo application.

Just enough stack for raw request/response traffic between two statically
configured endpoints: no ARP (peers are known on a direct cable), no
fragmentation, no options, no TCP. Frame layout is bit-exact standard
Ethernet II / RFC 791 / RFC 768.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17

ETH_HEADER = 14
IPV4_HEADER = 20
UDP_HEADER = 8
HEADERS = ETH_HEADER + IPV4_HEADER + UDP_HEADER

MAX_PAYLOAD = 1472            # MTU-limited UDP payload
MAX_IP_LENGTH = IPV4_HEADER + UDP_HEADER + MAX_PAYLOAD  # 1500, the MTU
MAX_FRAME = ETH_HEADER + MAX_IP_LENGTH  # 1514, no FCS

_IPV4 = struct.Struct("!BBHHHBBH4s4s")
# UDP pseudo-header: source, destination, zero, protocol, UDP length.
_PSEUDO = struct.Struct("!4s4sxBH")
# The pseudo-header followed by the UDP header, as the UDP checksum covers them.
_PSEUDO_UDP = struct.Struct(_PSEUDO.format + "HHHH")
# Ethernet II + IPv4 + UDP headers, read or written in one call.
_FRAME_HEADERS = struct.Struct("!6s6sH" "BBHHHBBH4s4s" "HHHH")
# Where the UDP destination port and checksum fields sit in a frame.
UDP_DPORT_AT = ETH_HEADER + IPV4_HEADER + 2
UDP_CSUM_AT = ETH_HEADER + IPV4_HEADER + 6


@dataclass(frozen=True, slots=True, init=False)
class UdpEndpoint:
    mac: bytes
    ipv4: bytes
    port: int

    def __init__(self, mac: bytes, ipv4: bytes, port: int):
        # Not an assert: under `python -O` it would vanish, and struct's 6s/4s
        # would then pad or truncate a bad address without a word.
        if len(mac) != 6 or len(ipv4) != 4:
            raise ValueError(f"endpoint needs a 6-byte MAC and a 4-byte IPv4 address,"
                             f" got {len(mac)} and {len(ipv4)} bytes")
        # Slot setters directly, as `Capability` does: the frozen class's
        # own __setattr__ refuses, and object.__setattr__ is slower.
        _set_mac(self, mac)
        _set_ipv4(self, ipv4)
        _set_port(self, port)


_set_mac = UdpEndpoint.mac.__set__
_set_ipv4 = UdpEndpoint.ipv4.__set__
_set_port = UdpEndpoint.port.__set__


class Reject(Enum):
    RUNT = "frame shorter than headers"
    ETHERTYPE = "not IPv4"
    IP_VERSION = "bad IP version or header length"
    IP_LENGTH = "IP total length inconsistent"
    IP_CHECKSUM = "IP header checksum mismatch"
    PROTOCOL = "not UDP"
    UDP_LENGTH = "UDP length inconsistent"
    UDP_CHECKSUM = "UDP checksum mismatch"


class DecodeError(Exception):
    def __init__(self, reason: Reject):
        super().__init__(reason.value)
        self.reason = reason


def ones_complement_sum(data: bytes) -> int:
    """RFC 1071 sum of `data` as big-endian 16-bit words (padded with a
    trailing zero if odd), folded with end-around carry.

    Computed in one fold: 2**16 == 1 (mod 0xFFFF), so the whole buffer read
    as one integer is congruent to the sum of its words. The carry fold
    yields 0 only for all-zero data, so a zero residue of nonzero data
    stands for 0xFFFF.
    """
    n = int.from_bytes(data, "big")
    if len(data) % 2:
        n <<= 8
    if not n:
        return 0
    return n % 0xFFFF or 0xFFFF


def _checksum(data: bytes) -> int:
    return (~ones_complement_sum(data)) & 0xFFFF


def encode_udp(src: UdpEndpoint, dst: UdpEndpoint, payload: bytes,
               udp_csum: int | None = None) -> bytes:
    """Build one Ethernet+IPv4+UDP frame. Deterministic: fixed id/ttl/flags.

    `udp_csum`, when given, is the UDP checksum this frame must carry and is
    not recomputed: the caller knows it from a frame over the same words
    (see `echo_reply`)."""
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload {len(payload)} exceeds {MAX_PAYLOAD}")

    udp_len = UDP_HEADER + len(payload)
    ip_len = IPV4_HEADER + udp_len

    ip_csum = _checksum(
        _IPV4.pack(0x45, 0, ip_len, 0, 0, 64, IP_PROTO_UDP, 0, src.ipv4, dst.ipv4))
    if udp_csum is None:
        udp_csum = _checksum(_PSEUDO_UDP.pack(src.ipv4, dst.ipv4, IP_PROTO_UDP, udp_len,
                                              src.port, dst.port, udp_len, 0) + payload)
        if udp_csum == 0:
            udp_csum = 0xFFFF  # transmitted checksum of zero means "none"; never emit it

    return _FRAME_HEADERS.pack(
        dst.mac, src.mac, ETHERTYPE_IPV4,
        0x45, 0, ip_len, 0, 0, 64, IP_PROTO_UDP, ip_csum, src.ipv4, dst.ipv4,
        src.port, dst.port, udp_len, udp_csum) + payload


def decode_udp(frame: bytes) -> tuple[UdpEndpoint, UdpEndpoint, bytes]:
    """Parse and fully validate a frame; returns (src, dst, payload)."""
    if len(frame) < HEADERS:
        raise DecodeError(Reject.RUNT)
    (dst_mac, src_mac, ethertype,
     ver_ihl, _tos, ip_len, _id, _frag, _ttl, proto, _csum, src_ip, dst_ip,
     sport, dport, udp_len, udp_csum) = _FRAME_HEADERS.unpack_from(frame)
    if ethertype != ETHERTYPE_IPV4:
        raise DecodeError(Reject.ETHERTYPE)
    if ver_ihl != 0x45:
        raise DecodeError(Reject.IP_VERSION)
    if ones_complement_sum(frame[ETH_HEADER:ETH_HEADER + IPV4_HEADER]) != 0xFFFF:
        raise DecodeError(Reject.IP_CHECKSUM)
    # Above the MTU is refused as `encode_udp` refuses it, so every frame
    # that decodes can be echoed.
    if (not IPV4_HEADER + UDP_HEADER <= ip_len <= MAX_IP_LENGTH
            or ETH_HEADER + ip_len > len(frame)):
        raise DecodeError(Reject.IP_LENGTH)
    if proto != IP_PROTO_UDP:
        raise DecodeError(Reject.PROTOCOL)
    if udp_len != ip_len - IPV4_HEADER:
        raise DecodeError(Reject.UDP_LENGTH)
    if udp_csum == 0:
        raise DecodeError(Reject.UDP_CHECKSUM)
    end = ETH_HEADER + ip_len
    pseudo = _PSEUDO.pack(src_ip, dst_ip, IP_PROTO_UDP, udp_len)
    if ones_complement_sum(pseudo + frame[ETH_HEADER + IPV4_HEADER:end]) != 0xFFFF:
        raise DecodeError(Reject.UDP_CHECKSUM)

    return (
        UdpEndpoint(src_mac, src_ip, sport),
        UdpEndpoint(dst_mac, dst_ip, dport),
        bytes(frame[HEADERS:end]),
    )


def carried_udp_checksum(frame: bytes) -> int:
    """The UDP checksum field of a frame, as transmitted."""
    return frame[UDP_CSUM_AT] << 8 | frame[UDP_CSUM_AT + 1]


def echo_reply(frame: bytes) -> bytes | None:
    """Echo-server step: swap MACs/IPs/ports, keep the payload byte-identical.

    Returns None for anything that is not a valid UDP frame.

    The reply carries the request's UDP checksum. Swapping the addresses and
    ports only reorders the 16-bit words that checksum sums, and a ones'
    complement sum does not depend on their order (RFC 1071 section 2).
    A checksum that verifies is unique but for the pair 0 and 0xFFFF;
    `decode_udp` refuses a carried 0 and `encode_udp` never emits one, so
    the carried value is the one `encode_udp` would compute. The IP header
    checksum is computed afresh: the request's TOS, ID and TTL need not be
    the ones the reply carries.
    """
    try:
        src, dst, payload = decode_udp(frame)
    except DecodeError:
        return None
    return encode_udp(dst, src, payload, carried_udp_checksum(frame))
