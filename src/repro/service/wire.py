"""The service wire frame: one codec for every reader and writer.

Every message on a service connection -- request or reply, between
client, server, shard router and farm peers, and through the chaos
proxy -- is one **frame**:

* a **header**: one line of compact JSON holding the message's small
  fields;
* optionally a **payload**: one line of canonical compact JSON
  (:func:`repro.compiler.serialize.canonical_dumps`) holding the bulk
  document.  A header that announces one starts with its length and
  hash::

      {"payload_len":N,"payload_sha256":"<hex>",...}\\n
      <N bytes of canonical JSON>\\n

What travels as payload is the ``artifact`` of a ``store``/``fetch``
message, or the ``schedule`` (and ``registers``) sub-document of a
``compile``/``amend`` reply, which the server hands over as the bytes
its cache already encoded.  ``payload_sha256`` is the sha256 of
exactly the payload bytes, which equals
:func:`~repro.compiler.serialize.artifact_digest` of the document they
encode.  A payload is encoded and hashed at most once: the server
writes bytes cached by :class:`~repro.service.cache.ArtifactCache`,
the shard router relays them untouched (:func:`decode_header`), and
the receiver hashes the bytes it read before parsing them once
(:func:`decode`).

Canonical compact JSON never holds a raw newline, so every reader is
line-based.  Only a header that *starts* with ``{"payload_len":``
announces a second line, so a reader never parses a payload-less
header (large requests, ``stats`` replies) to find the frame's end
(:func:`read_frame`).  Replies without a payload (errors, ``ping``,
``stats``, ...) are one line.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any

from repro.compiler.serialize import artifact_digest, canonical_dumps

#: The first bytes of every header that announces a payload line.
PAYLOAD_MARK = b'{"payload_len":'
#: Ops whose payload is a whole artifact document (``artifact`` field);
#: any other payload's fields join the message (``schedule``, ...).
ARTIFACT_OPS = frozenset({"store", "fetch"})


class FrameError(ValueError):
    """A frame that does not decode: unparseable header, or a payload
    that is missing or does not match its announced length or hash."""


@dataclass(frozen=True)
class Payload:
    """Canonical JSON bytes of one payload and the sha256 they claim."""

    data: bytes
    sha256: str

    @classmethod
    def of(cls, doc: Any, sha256: str | None = None) -> "Payload":
        data = canonical_dumps(doc).encode("ascii")
        return cls(data, sha256 if sha256 is not None else artifact_digest(data))


#: Message keys that never travel in a payload-carrying header.
_PAYLOAD_KEYS = frozenset({"payload", "artifact", "payload_len", "payload_sha256"})


def encode(msg: dict[str, Any]) -> bytes:
    """``msg`` as one frame: its header line, then its payload line if any.

    The payload is a :class:`Payload` under ``payload`` (the cached
    bytes of a served artifact, written as is) or the ``artifact`` of a
    ``store``/``fetch`` message, encoded here.  A ``payload_sha256`` the
    message carries is sent as the claim the receiver checks.
    """
    payload = msg.get("payload")
    if not isinstance(payload, Payload):
        if msg.get("op") not in ARTIFACT_OPS or "artifact" not in msg:
            return json.dumps(msg, separators=(",", ":")).encode() + b"\n"
        payload = Payload.of(msg["artifact"], msg.get("payload_sha256"))
    rest = json.dumps(
        {k: v for k, v in msg.items() if k not in _PAYLOAD_KEYS},
        separators=(",", ":"),
    ).encode()[1:-1]
    return b'%s%d,"payload_sha256":"%s"%s}\n%s\n' % (
        PAYLOAD_MARK, len(payload.data), payload.sha256.encode("ascii"),
        b"," + rest if rest else b"", payload.data,
    )


def _announces_payload(head: bytes) -> bool:
    """Whether a header line announces a payload line after it.

    A marked line that does not parse is not a header: a garbled one,
    or a header run into its payload by a lost newline.  Reading on
    would wait for a line that never comes; returning it alone lets the
    decoder reject it at once.  A line no longer than the payload it
    announces cannot hold that payload, so only the rare header longer
    than its payload is parsed here (the decoder parses every header).
    """
    if not head.startswith(PAYLOAD_MARK):
        return False
    announced = head[len(PAYLOAD_MARK):head.find(b",")]
    if announced.isdigit() and len(head) <= int(announced):
        return True
    try:
        return isinstance(json.loads(head), dict)
    except (ValueError, UnicodeDecodeError):
        return False


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """The bytes of one frame: header line plus announced payload line.

    Returns what arrived: ``b""`` at end of stream, and a frame that
    does not end in a newline when the stream ended mid-frame.  Raises
    :class:`asyncio.LimitOverrunError` for a line past the reader's
    limit.  One coroutine per frame, so one ``asyncio.timeout`` block
    bounds a whole frame.
    """
    frame = b""
    try:
        frame = await reader.readuntil(b"\n")
        if _announces_payload(frame):
            frame += await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        frame += exc.partial
    return frame


def decode_header(frame: bytes) -> dict[str, Any]:
    """``frame``'s parsed header, for a reader that relays the payload.

    The payload is checked for its announced length only; a header that
    announces a payload the frame does not carry is a
    :class:`FrameError`, so a reader can never take a leftover payload
    line for the next message.
    """
    return _split(frame)[0]


def decode(frame: bytes) -> dict[str, Any]:
    """``frame`` as one message: its header, with the payload merged.

    The payload bytes are hashed against the header's
    ``payload_sha256`` before they are parsed, once.  A ``store``/
    ``fetch`` payload lands under ``artifact``; any other payload's
    fields (``schedule``, ``registers``) join the message.  Every fault
    is a :class:`FrameError`.
    """
    msg, payload = _split(frame)
    if payload is None:
        return msg
    if artifact_digest(payload) != msg.get("payload_sha256"):
        raise FrameError("payload integrity check failed")
    try:
        doc = json.loads(payload)
    except ValueError as exc:
        raise FrameError(f"payload is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FrameError("payload must be a JSON object")
    if msg.get("op") in ARTIFACT_OPS:
        msg["artifact"] = doc
    else:
        msg.update(doc)
    return msg


def _split(frame: bytes) -> tuple[dict[str, Any], bytes | None]:
    """The parsed header and the raw payload (length-checked)."""
    head, _, rest = frame.partition(b"\n")
    try:
        header = json.loads(head)
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"bad JSON frame: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError("frame header must be a JSON object")
    if not rest:
        if "payload_len" in header or "payload_sha256" in header:
            raise FrameError("header announces a payload the frame lacks")
        return header, None
    payload = rest[:-1]
    if (
        not rest.endswith(b"\n")
        or b"\n" in payload
        or header.get("payload_len") != len(payload)
    ):
        raise FrameError("payload length does not match its header")
    return header, payload
