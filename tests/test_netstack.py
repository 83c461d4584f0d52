import pickle
import random
import struct
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capslice.netstack import (
    DecodeError,
    HEADERS,
    MAX_FRAME,
    MAX_IP_LENGTH,
    MAX_PAYLOAD,
    Reject,
    UdpEndpoint,
    decode_udp,
    echo_reply,
    encode_udp,
    ones_complement_sum,
)

A = UdpEndpoint(mac=b"\x02\x00\x00\x00\x00\x02", ipv4=bytes([10, 0, 0, 2]), port=40000)
B = UdpEndpoint(mac=b"\x02\x00\x00\x00\x00\x01", ipv4=bytes([10, 0, 0, 1]), port=7)


def ref_ones_complement(data):
    # independent straight-line oracle: byte pairs, end-around carry each step
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return total


def test_frame_length_arithmetic():
    assert len(encode_udp(A, B, b"x")) == 43  # 14 + 20 + 8 + 1
    assert len(encode_udp(A, B, b"")) == 42
    assert len(encode_udp(A, B, b"q" * MAX_PAYLOAD)) == 1514


@pytest.mark.parametrize("mac,ipv4", [
    (b"\x02" * 5, bytes(4)),   # short MAC
    (b"\x02" * 7, bytes(4)),   # long MAC
    (b"\x02" * 6, bytes(3)),   # short IPv4
    (b"\x02" * 6, bytes(5)),   # long IPv4
], ids=["short-mac", "long-mac", "short-ipv4", "long-ipv4"])
def test_endpoint_rejects_bad_address_lengths(mac, ipv4):
    # A ValueError, not an assert: it must hold under `python -O` too, where
    # struct's 6s/4s would otherwise pad or truncate the address.
    with pytest.raises(ValueError, match=f"^endpoint needs a 6-byte MAC and a 4-byte IPv4"
                                         f" address, got {len(mac)} and {len(ipv4)} bytes$"):
        UdpEndpoint(mac=mac, ipv4=ipv4, port=7)


def test_endpoint_is_an_immutable_hashable_picklable_value():
    a = UdpEndpoint(b"\x02" * 6, bytes(4), 7)
    assert a == UdpEndpoint(mac=b"\x02" * 6, ipv4=bytes(4), port=7)
    assert hash(a) == hash(UdpEndpoint(b"\x02" * 6, bytes(4), 7))
    assert a != UdpEndpoint(b"\x02" * 6, bytes(4), 8)
    assert len({a, UdpEndpoint(b"\x02" * 6, bytes(4), 7), B}) == 2
    for field, value in (("mac", bytes(6)), ("ipv4", bytes(4)), ("port", 8)):
        with pytest.raises(FrozenInstanceError):
            setattr(a, field, value)
    with pytest.raises((AttributeError, TypeError)):
        a.extra = 1  # slotted: no per-instance dict
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(a, protocol))
        assert copy == a and hash(copy) == hash(a)


def test_payload_too_large_rejected():
    with pytest.raises(ValueError):
        encode_udp(A, B, b"q" * (MAX_PAYLOAD + 1))


def test_ip_header_self_verifies():
    frame = encode_udp(A, B, b"hello")
    ip = frame[14:34]
    assert ones_complement_sum(ip) == 0xFFFF


def test_fixed_vector_against_independent_oracle():
    # 18-byte payload, values frozen from the straight-line reference above
    payload = bytes(range(0x41, 0x41 + 18))
    frame = encode_udp(A, B, payload)
    udp_csum = int.from_bytes(frame[40:42], "big")
    ip_csum = int.from_bytes(frame[24:26], "big")
    assert udp_csum == 0xBBD3
    assert ip_csum == 0x66BD
    # and the oracle agrees when recomputed from scratch
    pseudo = A.ipv4 + B.ipv4 + bytes([0, 17]) + (8 + 18).to_bytes(2, "big")
    udp_zeroed = frame[34:40] + b"\x00\x00" + payload
    assert (~ref_ones_complement(pseudo + udp_zeroed)) & 0xFFFF == 0xBBD3


def test_checksum_helper_matches_reference_on_random_buffers():
    rng = random.Random(3)
    buffers = [rng.randbytes(rng.randrange(0, 64)) for _ in range(200)]
    buffers += [rng.randbytes(rng.randrange(0, MAX_FRAME + 1)) for _ in range(100)]
    # hostile inputs: sums that fold to 0 or 0xFFFF, and odd lengths
    buffers += [
        b"",
        bytes(1), bytes(2), bytes(41), bytes(MAX_FRAME),
        b"\xff", b"\xff\xff", b"\xff" * 41, b"\xff" * MAX_FRAME,
        b"\x80\x00\x7f\xff", b"\x00\x01\xff\xfe", b"\xfe\xff\x01",
        b"\x00" * 40 + b"\x01", b"\x01" + b"\x00" * 40,
    ]
    for data in buffers:
        assert ones_complement_sum(data) == ref_ones_complement(data), data[:8]
    assert ones_complement_sum(b"\x80\x00\x7f\xff") == 0xFFFF  # never 0 for nonzero data


def test_roundtrip_every_interesting_size():
    rng = random.Random(4)
    for size in [0, 1, 2, 3, 17, 64, 512, 1024, 1471, 1472]:
        payload = rng.randbytes(size)
        src, dst, got = decode_udp(encode_udp(A, B, payload))
        assert (src, dst, got) == (A, B, payload)


def test_flipped_payload_bit_rejected():
    frame = bytearray(encode_udp(A, B, b"payload!"))
    frame[-1] ^= 0x01
    with pytest.raises(DecodeError) as err:
        decode_udp(bytes(frame))
    assert err.value.reason is Reject.UDP_CHECKSUM


def test_truncated_frame_rejected():
    frame = encode_udp(A, B, b"payload!")
    with pytest.raises(DecodeError) as err:
        decode_udp(frame[:33])  # 19-byte IPv4 header
    assert err.value.reason is Reject.RUNT
    with pytest.raises(DecodeError) as err:
        decode_udp(frame[:45])  # headers fit, payload cut
    assert err.value.reason is Reject.IP_LENGTH


def test_wrong_ethertype_rejected():
    frame = bytearray(encode_udp(A, B, b"x"))
    frame[12:14] = b"\x08\x06"  # ARP
    with pytest.raises(DecodeError) as err:
        decode_udp(bytes(frame))
    assert err.value.reason is Reject.ETHERTYPE


def test_bad_ip_version_rejected():
    frame = bytearray(encode_udp(A, B, b"x"))
    frame[14] = 0x46  # IHL 6: options unsupported
    with pytest.raises(DecodeError) as err:
        decode_udp(bytes(frame))
    assert err.value.reason is Reject.IP_VERSION


def test_every_checksummed_header_bit_is_protected():
    # exhaustive over one fixed frame: ethertype + IP header + UDP header
    frame = encode_udp(A, B, bytes(range(32)))
    for byte in range(12, HEADERS):
        for bit in range(8):
            mutated = bytearray(frame)
            mutated[byte] ^= 1 << bit
            with pytest.raises(DecodeError):
                decode_udp(bytes(mutated))


def _set_u16(frame, offset, value):
    frame[offset:offset + 2] = value.to_bytes(2, "big")


def _refix_ip_checksum(frame):
    # recompute the IPv4 header checksum so only the intended defects remain
    _set_u16(frame, 24, 0)
    _set_u16(frame, 24, (~ref_ones_complement(bytes(frame[14:34]))) & 0xFFFF)


def _bad_ethertype(f):
    f[12:14] = b"\x86\xdd"


def _bad_version(f):
    f[14] = 0x65


def _bad_ip_checksum(f):
    f[24] ^= 0x10


def _ip_len_too_big(f):
    _set_u16(f, 16, len(f) - 14 + 2)


def _ip_len_too_small(f):
    _set_u16(f, 16, 27)


def _ip_len_short_by_two(f):
    _set_u16(f, 16, len(f) - 14 - 2)


def _bad_protocol(f):
    f[23] = 6


def _bad_udp_length(f):
    _set_u16(f, 38, int.from_bytes(f[38:40], "big") + 1)


def _zero_udp_checksum(f):
    _set_u16(f, 40, 0)


def _flip_payload(f):
    f[-1] ^= 0x40


def _runt(f):
    del f[HEADERS - 1:]


# Frames with two or more defects at once; the expected reason is the one
# the original four-slice decoder reported, so the first failing check in
# RUNT, ETHERTYPE, IP_VERSION, IP_CHECKSUM, IP_LENGTH, PROTOCOL, UDP_LENGTH,
# UDP_CHECKSUM order wins. `refix` re-seals the IP header checksum after the
# defects are applied.
REJECT_ORDER_CASES = [
    ((_bad_ethertype, _bad_version), False, Reject.ETHERTYPE),
    ((_bad_ethertype, _bad_ip_checksum, _bad_protocol), False, Reject.ETHERTYPE),
    ((_runt, _bad_ethertype, _bad_version), False, Reject.RUNT),
    ((_bad_version, _bad_ip_checksum), False, Reject.IP_VERSION),
    ((_bad_version, _ip_len_too_big, _bad_protocol), True, Reject.IP_VERSION),
    ((_bad_ip_checksum, _ip_len_too_big), False, Reject.IP_CHECKSUM),
    ((_bad_ip_checksum, _bad_protocol, _bad_udp_length), False, Reject.IP_CHECKSUM),
    ((_ip_len_too_big, _bad_protocol), True, Reject.IP_LENGTH),
    ((_ip_len_too_small, _bad_protocol, _zero_udp_checksum), True, Reject.IP_LENGTH),
    ((_bad_protocol, _bad_udp_length), True, Reject.PROTOCOL),
    ((_bad_protocol, _zero_udp_checksum, _flip_payload), True, Reject.PROTOCOL),
    ((_bad_udp_length, _zero_udp_checksum), False, Reject.UDP_LENGTH),
    ((_ip_len_short_by_two, _flip_payload), True, Reject.UDP_LENGTH),
    ((_zero_udp_checksum, _flip_payload), False, Reject.UDP_CHECKSUM),
]


@pytest.mark.parametrize("defects,refix,reason", REJECT_ORDER_CASES,
                         ids=["+".join(d.__name__[1:] for d in case[0])
                              for case in REJECT_ORDER_CASES])
def test_multi_defect_frames_reject_in_check_order(defects, refix, reason):
    frame = bytearray(encode_udp(A, B, bytes(range(24))))
    for defect in defects:
        defect(frame)
    if refix:
        _refix_ip_checksum(frame)
    with pytest.raises(DecodeError) as err:
        decode_udp(bytes(frame))
    assert err.value.reason is reason


def _hand_built_frame(payload):
    # encode_udp refuses a payload above MAX_PAYLOAD, so this builds the
    # frame it would have built, sealed with the reference checksum.
    udp_len = 8 + len(payload)
    ip = bytearray(struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + udp_len, 0, 0, 64, 17, 0,
                               A.ipv4, B.ipv4))
    ip[10:12] = ((~ref_ones_complement(bytes(ip))) & 0xFFFF).to_bytes(2, "big")
    pseudo = struct.pack("!4s4sxBHHHHH", A.ipv4, B.ipv4, 17, udp_len,
                         A.port, B.port, udp_len, 0)
    csum = (~ref_ones_complement(pseudo + payload)) & 0xFFFF or 0xFFFF
    udp = struct.pack("!HHHH", A.port, B.port, udp_len, csum)
    return B.mac + A.mac + b"\x08\x00" + bytes(ip) + udp + payload


def test_hand_built_frame_matches_the_encoder():
    payload = bytes(random.Random(5).randrange(256) for _ in range(MAX_PAYLOAD))
    assert _hand_built_frame(payload) == encode_udp(A, B, payload)


@pytest.mark.parametrize("extra", [1, 4, 100])
def test_ip_length_above_the_mtu_is_rejected(extra):
    # Checksum-valid and self-consistent, but `extra` bytes over the MTU: the
    # encoder could never echo it, so the decoder does not accept it.
    frame = _hand_built_frame((bytes(range(256)) * 7)[:MAX_PAYLOAD + extra])
    assert len(frame) == MAX_FRAME + extra
    assert int.from_bytes(frame[16:18], "big") == MAX_IP_LENGTH + extra
    with pytest.raises(DecodeError) as err:
        decode_udp(frame)
    assert err.value.reason is Reject.IP_LENGTH
    assert echo_reply(frame) is None


# -- echo -------------------------------------------------------------------------

def test_echo_swaps_and_preserves():
    payload = b"ping"
    assert echo_reply(encode_udp(A, B, payload)) == encode_udp(B, A, payload)


def test_echo_boundary_sizes():
    for size in (1, MAX_PAYLOAD):
        payload = bytes(size)
        reply = echo_reply(encode_udp(A, B, payload))
        src, dst, got = decode_udp(reply)
        assert (src, dst) == (B, A)
        assert got == payload


def test_echo_ignores_non_ipv4():
    frame = bytearray(encode_udp(A, B, b"x"))
    frame[12:14] = b"\x08\x06"
    assert echo_reply(bytes(frame)) is None


def test_echo_ignores_corrupt_frames():
    frame = bytearray(encode_udp(A, B, b"x"))
    frame[-1] ^= 0xFF
    assert echo_reply(bytes(frame)) is None


# -- echo against the encoder it replaced --------------------------------------------
# `echo_reply` carries the request's UDP checksum over; the reference below
# is `encode_udp` as it was before it could take a known checksum, so it
# sums the pseudo-header and payload again.

def reference_encode_udp(src, dst, payload):
    udp_len = 8 + len(payload)
    ip_len = 20 + udp_len
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, ip_len, 0, 0, 64, 17, 0, src.ipv4, dst.ipv4)
    ip_csum = (~ones_complement_sum(ip)) & 0xFFFF
    pseudo_udp = struct.pack("!4s4sxBHHHHH", src.ipv4, dst.ipv4, 17, udp_len,
                             src.port, dst.port, udp_len, 0)
    udp_csum = (~ones_complement_sum(pseudo_udp + payload)) & 0xFFFF
    if udp_csum == 0:
        udp_csum = 0xFFFF
    return struct.pack("!6s6sH" "BBHHHBBH4s4s" "HHHH",
                       dst.mac, src.mac, 0x0800,
                       0x45, 0, ip_len, 0, 0, 64, 17, ip_csum, src.ipv4, dst.ipv4,
                       src.port, dst.port, udp_len, udp_csum) + payload


def reference_echo(frame):
    try:
        src, dst, payload = decode_udp(frame)
    except DecodeError:
        return None
    return reference_encode_udp(dst, src, payload)


def request(src, dst, payload, tos=0, ident=0, frag=0, ttl=64, padding=b""):
    """A valid request with any TOS, ID, flags/fragment and TTL, its IP
    checksum repaired, and `padding` after the datagram."""
    frame = bytearray(reference_encode_udp(src, dst, payload))
    struct.pack_into("!BBHHHBBH", frame, 14, 0x45, tos, 28 + len(payload), ident, frag,
                     ttl, 17, 0)
    _refix_ip_checksum(frame)
    return bytes(frame) + padding


def _all_ones_payload():
    # A 2-byte payload that brings the UDP sum to 0xFFFF, so the computed
    # checksum is 0 and goes on the wire as 0xFFFF.
    base = ones_complement_sum(struct.pack("!4s4sxBHHHHH", A.ipv4, B.ipv4, 17, 10,
                                           A.port, B.port, 10, 0))
    return (0xFFFF - base).to_bytes(2, "big")


ALL_ONES = request(A, B, _all_ones_payload())

endpoints = st.builds(UdpEndpoint, st.binary(min_size=6, max_size=6),
                      st.binary(min_size=4, max_size=4), st.integers(0, 0xFFFF))
requests = st.builds(request, endpoints, endpoints, st.binary(max_size=MAX_PAYLOAD),
                     st.integers(0, 0xFF), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
                     st.integers(0, 0xFF), st.binary(max_size=46))


def test_all_ones_request_carries_0xffff():
    assert int.from_bytes(ALL_ONES[40:42], "big") == 0xFFFF
    assert echo_reply(ALL_ONES) == reference_echo(ALL_ONES) is not None


@settings(max_examples=300, deadline=None)
@given(frame=requests, corrupt=st.one_of(st.none(), st.integers(0, 1 << 20)),
       cut=st.booleans())
@example(frame=ALL_ONES, corrupt=None, cut=False)
@example(frame=request(A, B, b"", tos=0xB8, ident=0xFFFF, ttl=1), corrupt=None, cut=False)
@example(frame=request(A, B, bytes(MAX_PAYLOAD), padding=bytes(4)), corrupt=None, cut=False)
def test_echo_matches_the_reference_encoder(frame, corrupt, cut):
    datagram_end = 14 + int.from_bytes(frame[16:18], "big")
    if corrupt is not None:
        # Any one bit from the ethertype to the datagram's end is covered
        # by the IP or the UDP checksum, or fails a structural check.
        bit = 12 * 8 + corrupt % ((datagram_end - 12) * 8)
        mutated = bytearray(frame)
        mutated[bit // 8] ^= 1 << bit % 8
        frame = bytes(mutated)
    elif cut:
        frame = frame[:datagram_end - 1]
    got = echo_reply(frame)
    assert got == reference_echo(frame)
    assert (got is None) == (corrupt is not None or cut)
