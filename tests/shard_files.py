"""Where things are in a shard file, taken from docs/FORMATS.md alone.

Written from the format document, not from srcodes.shards, so that the
tests built on it check that module rather than repeat it.  Both
versions start with the same 44-byte header; v1 follows it with the
CRC-32 table (a u32 per chunk) and then the chunk payload, v2 with the
payload and then the table.  Chunks, and their CRCs, are stripe-major,
then slot order within the stripe.
"""

import hashlib

HEADER_B = 44
VERSION_AT = 8     # the header's u16 version
RESERVED_AT = 18   # the header's reserved u16


def table_bytes(p, stripes):
    return 4 * stripes * (p.f + 1)


def payload_bytes(p, stripes):
    return stripes * (p.f + 1) * p.chunk_size


def shard_bytes(p, stripes):
    return HEADER_B + table_bytes(p, stripes) + payload_bytes(p, stripes)


def payload_at(p, stripes, version=2):
    return HEADER_B + (table_bytes(p, stripes) if version == 1 else 0)


def table_at(p, stripes, version=2):
    return HEADER_B + (0 if version == 1 else payload_bytes(p, stripes))


def slot_at(p, stripes, stripe, slot, version=2):
    """The first byte of one chunk slot of one stripe."""
    return payload_at(p, stripes, version) \
        + (stripe * (p.f + 1) + slot) * p.chunk_size


def counter_input(size):
    """size bytes of SHA-256 output, counter mode: fixed however numpy's
    random streams change."""
    blocks = (hashlib.sha256(i.to_bytes(4, "little")).digest()
              for i in range(-(-size // 32)))
    return b"".join(blocks)[:size]
