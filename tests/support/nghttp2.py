"""A ctypes binding to libnghttp2, the outside reference for ``repro.h2``.

The paper built H2Scope on the nghttp2 C library, so the codec tests
check our frame and HPACK codecs against it: its HPACK inflater and
deflater, and a server session fed bytes through
``nghttp2_session_mem_recv``.  Only symbols nghttp2 1.52.0 exports are
bound, so every build a host carries loads.

:func:`libraries` loads one :class:`Nghttp2` per distinct version: the
library ``ctypes.util.find_library`` finds, and the ``lib/`` copy beside
the ``nghttpd`` on ``PATH``.  It is empty when neither loads, and the
differential tests skip.  ``python -m tests.support.nghttp2`` prints the
versions that load and exits 1 when there are none.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import shutil
import struct
import sys
from ctypes import (
    POINTER,
    byref,
    c_char_p,
    c_int,
    c_int32,
    c_size_t,
    c_uint8,
    c_uint32,
    c_void_p,
)
from pathlib import Path

_NV_FLAG_NO_INDEX = 0x01
_INFLATE_FINAL = 0x01
_INFLATE_EMIT = 0x02
_BYTES = POINTER(c_uint8)


class Nghttp2Error(Exception):
    """A negative return code from the library."""

    def __init__(self, call: str, code: int):
        super().__init__(f"nghttp2_{call} returned {code}")


def _struct(name, fields):
    return type(name, (ctypes.Structure,), {"_fields_": fields})


_Info = _struct(
    "Info",
    [
        ("age", c_int),
        ("version_num", c_int),
        ("version_str", c_char_p),
        ("proto_str", c_char_p),
    ],
)
_NV = _struct(
    "NV",
    [
        ("name", _BYTES),
        ("value", _BYTES),
        ("namelen", c_size_t),
        ("valuelen", c_size_t),
        ("flags", c_uint8),
    ],
)
_FrameHd = _struct(
    "FrameHd",
    [
        ("length", c_size_t),
        ("stream_id", c_int32),
        ("type", c_uint8),
        ("flags", c_uint8),
        ("reserved", c_uint8),
    ],
)
_PrioritySpec = _struct(
    "PrioritySpec", [("stream_id", c_int32), ("weight", c_int32), ("exclusive", c_uint8)]
)
_SettingsEntry = _struct("SettingsEntry", [("settings_id", c_int32), ("value", c_uint32)])


def _frame(name, fields):
    """One member of the ``nghttp2_frame`` union: a header, then ``fields``."""
    return _struct(name, [("hd", _FrameHd), *fields])


class _Frame(ctypes.Union):
    _fields_ = [
        ("hd", _FrameHd),
        ("data", _frame("Data", [("padlen", c_size_t)])),
        (
            "headers",
            _frame("Headers", [("padlen", c_size_t), ("pri_spec", _PrioritySpec)]),
        ),
        ("priority", _frame("Priority", [("pri_spec", _PrioritySpec)])),
        ("rst_stream", _frame("RstStream", [("error_code", c_uint32)])),
        (
            "settings",
            _frame("Settings", [("niv", c_size_t), ("iv", POINTER(_SettingsEntry))]),
        ),
        ("ping", _frame("Ping", [("opaque_data", c_uint8 * 8)])),
        (
            "goaway",
            _frame(
                "GoAway",
                [
                    ("last_stream_id", c_int32),
                    ("error_code", c_uint32),
                    ("opaque_data", _BYTES),
                    ("opaque_data_len", c_size_t),
                ],
            ),
        ),
        ("window_update", _frame("WindowUpdate", [("window_size_increment", c_int32)])),
    ]


_BEGIN_FRAME = ctypes.CFUNCTYPE(c_int, c_void_p, POINTER(_FrameHd), c_void_p)
_FRAME_RECV = ctypes.CFUNCTYPE(c_int, c_void_p, POINTER(_Frame), c_void_p)
_INVALID_FRAME_RECV = ctypes.CFUNCTYPE(c_int, c_void_p, POINTER(_Frame), c_int, c_void_p)
_DATA_CHUNK_RECV = ctypes.CFUNCTYPE(
    c_int, c_void_p, c_uint8, c_int32, _BYTES, c_size_t, c_void_p
)

#: ``name: (restype, argtypes)`` for every function bound, less the
#: ``nghttp2_`` prefix.
_SIGNATURES = {
    "version": (POINTER(_Info), [c_int]),
    "hd_inflate_new": (c_int, [POINTER(c_void_p)]),
    "hd_inflate_del": (None, [c_void_p]),
    "hd_inflate_change_table_size": (c_int, [c_void_p, c_size_t]),
    "hd_inflate_hd2": (
        ctypes.c_ssize_t,
        [c_void_p, POINTER(_NV), POINTER(c_int), c_char_p, c_size_t, c_int],
    ),
    "hd_inflate_end_headers": (c_int, [c_void_p]),
    "hd_inflate_get_dynamic_table_size": (c_size_t, [c_void_p]),
    "hd_deflate_new": (c_int, [POINTER(c_void_p), c_size_t]),
    "hd_deflate_del": (None, [c_void_p]),
    "hd_deflate_change_table_size": (c_int, [c_void_p, c_size_t]),
    "hd_deflate_bound": (c_size_t, [c_void_p, POINTER(_NV), c_size_t]),
    "hd_deflate_hd": (
        ctypes.c_ssize_t, [c_void_p, c_char_p, c_size_t, POINTER(_NV), c_size_t]
    ),
    "hd_deflate_get_dynamic_table_size": (c_size_t, [c_void_p]),
    "session_callbacks_new": (c_int, [POINTER(c_void_p)]),
    "session_callbacks_del": (None, [c_void_p]),
    "session_callbacks_set_on_begin_frame_callback": (None, [c_void_p, _BEGIN_FRAME]),
    "session_callbacks_set_on_frame_recv_callback": (None, [c_void_p, _FRAME_RECV]),
    "session_callbacks_set_on_invalid_frame_recv_callback": (
        None, [c_void_p, _INVALID_FRAME_RECV]
    ),
    "session_callbacks_set_on_data_chunk_recv_callback": (
        None, [c_void_p, _DATA_CHUNK_RECV]
    ),
    "session_server_new": (c_int, [POINTER(c_void_p), c_void_p, c_void_p]),
    "session_del": (None, [c_void_p]),
    "session_mem_recv": (ctypes.c_ssize_t, [c_void_p, c_char_p, c_size_t]),
    "session_mem_send": (ctypes.c_ssize_t, [c_void_p, POINTER(_BYTES)]),
    "submit_settings": (c_int, [c_void_p, c_uint8, POINTER(_SettingsEntry), c_size_t]),
    "submit_ping": (c_int, [c_void_p, c_uint8, c_char_p]),
    "submit_window_update": (c_int, [c_void_p, c_uint8, c_int32, c_int32]),
    "submit_goaway": (
        c_int, [c_void_p, c_uint8, c_int32, c_uint32, c_char_p, c_size_t]
    ),
    "submit_rst_stream": (c_int, [c_void_p, c_uint8, c_int32, c_uint32]),
    "submit_priority": (c_int, [c_void_p, c_uint8, c_int32, POINTER(_PrioritySpec)]),
    "submit_response": (
        c_int, [c_void_p, c_int32, POINTER(_NV), c_size_t, c_void_p]
    ),
}


class Nghttp2:
    """One loaded libnghttp2 build."""

    def __init__(self, path: str):
        self.path = path
        self.lib = ctypes.CDLL(path)
        for name, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(self.lib, f"nghttp2_{name}")
            function.restype, function.argtypes = restype, argtypes
        info = self.lib.nghttp2_version(0).contents
        self.version, self.version_num = info.version_str.decode(), info.version_num

    def __repr__(self) -> str:
        return f"nghttp2 {self.version}"

    def call(self, name: str, *args) -> int:
        """``nghttp2_<name>(*args)``; a negative result raises."""
        result = getattr(self.lib, f"nghttp2_{name}")(*args)
        if result < 0:
            raise Nghttp2Error(name, result)
        return result

    def new(self, name: str, *args) -> c_void_p:
        """The object ``nghttp2_<name>`` allocates into its first argument."""
        pointer = c_void_p()
        self.call(name, byref(pointer), *args)
        return pointer


def _nv_array(headers, flags: int = 0):
    """An ``nghttp2_nv`` array over ``headers``, which must outlive it."""
    nva = (_NV * len(headers))()
    for nv, (name, value) in zip(nva, headers):
        nv.name = ctypes.cast(c_char_p(name), _BYTES)
        nv.value = ctypes.cast(c_char_p(value), _BYTES)
        nv.namelen, nv.valuelen, nv.flags = len(name), len(value), flags
    return nva


class Inflater:
    """An ``nghttp2_hd_inflater``: HPACK header blocks in, header lists out."""

    def __init__(self, ng: Nghttp2):
        self.ng = ng
        self._ptr = ng.new("hd_inflate_new")

    def __del__(self):
        self.ng.lib.nghttp2_hd_inflate_del(self._ptr)

    def change_table_size(self, size: int) -> None:
        """What sending SETTINGS_HEADER_TABLE_SIZE = ``size`` does."""
        self.ng.call("hd_inflate_change_table_size", self._ptr, size)

    @property
    def dynamic_table_size(self) -> int:
        return self.ng.call("hd_inflate_get_dynamic_table_size", self._ptr)

    def inflate(self, block: bytes) -> list[tuple[bytes, bytes]]:
        """Decode one whole header block; raises :class:`Nghttp2Error`."""
        headers = []
        nv, flags, pos = _NV(), c_int(), 0
        while True:
            flags.value = 0
            rest = block[pos:]
            pos += self.ng.call(
                "hd_inflate_hd2", self._ptr, byref(nv), byref(flags), rest, len(rest), 1
            )
            if flags.value & _INFLATE_EMIT:
                name = ctypes.string_at(nv.name, nv.namelen)
                headers.append((name, ctypes.string_at(nv.value, nv.valuelen)))
            if flags.value & _INFLATE_FINAL:
                self.ng.call("hd_inflate_end_headers", self._ptr)
                return headers


class Deflater:
    """An ``nghttp2_hd_deflater``: header lists in, HPACK header blocks out."""

    def __init__(self, ng: Nghttp2, max_table_size: int = 4096):
        self.ng = ng
        self._ptr = ng.new("hd_deflate_new", max_table_size)

    def __del__(self):
        self.ng.lib.nghttp2_hd_deflate_del(self._ptr)

    def change_table_size(self, size: int) -> None:
        """What receiving SETTINGS_HEADER_TABLE_SIZE = ``size`` does."""
        self.ng.call("hd_deflate_change_table_size", self._ptr, size)

    @property
    def dynamic_table_size(self) -> int:
        return self.ng.call("hd_deflate_get_dynamic_table_size", self._ptr)

    def deflate(
        self, headers: list[tuple[bytes, bytes]], never_index: bool = False
    ) -> bytes:
        nva = _nv_array(headers, _NV_FLAG_NO_INDEX if never_index else 0)
        bound = self.ng.call("hd_deflate_bound", self._ptr, nva, len(headers))
        out = ctypes.create_string_buffer(bound)
        written = self.ng.call("hd_deflate_hd", self._ptr, out, bound, nva, len(headers))
        return out.raw[:written]


def _payload_fields(frame: _Frame) -> dict:
    """The payload fields nghttp2 decoded, under its own names."""
    kind = frame.hd.type
    if kind == 0:
        return {"padlen": frame.data.padlen}
    if kind == 1:
        spec = frame.headers.pri_spec
        return {
            "padlen": frame.headers.padlen,
            "pri_spec": (spec.stream_id, spec.weight, bool(spec.exclusive)),
        }
    if kind == 2:
        spec = frame.priority.pri_spec
        return {"pri_spec": (spec.stream_id, spec.weight, bool(spec.exclusive))}
    if kind == 3:
        return {"error_code": frame.rst_stream.error_code}
    if kind == 4:
        iv = frame.settings.iv
        entries = [iv[i] for i in range(frame.settings.niv)]
        return {"iv": [(entry.settings_id, entry.value) for entry in entries]}
    if kind == 6:
        return {"opaque_data": bytes(frame.ping.opaque_data)}
    if kind == 7:
        goaway = frame.goaway
        return {
            "last_stream_id": goaway.last_stream_id,
            "error_code": goaway.error_code,
            "opaque_data": ctypes.string_at(goaway.opaque_data, goaway.opaque_data_len)
            if goaway.opaque_data_len
            else b"",
        }
    if kind == 8:
        return {"window_size_increment": frame.window_update.window_size_increment}
    return {}


class ServerSession:
    """A server ``nghttp2_session`` that records what it was fed.

    ``begun`` holds every frame header ``on_begin_frame`` saw as
    ``(length, type, flags, stream_id)``; ``received`` holds
    ``(header, payload fields)`` for each ``on_frame_recv``; ``invalid``
    holds ``(type, lib_error_code)`` for each ``on_invalid_frame_recv``;
    ``data`` holds ``(stream_id, chunk)`` for each DATA chunk.
    """

    def __init__(self, ng: Nghttp2):
        self.ng = ng
        self.begun, self.received, self.invalid, self.data = [], [], [], []

        def on_begin_frame(_session, hd, _user):
            hd = hd.contents
            self.begun.append((hd.length, hd.type, hd.flags, hd.stream_id))
            return 0

        def on_frame_recv(_session, frame, _user):
            hd = frame.contents.hd
            header = (hd.length, hd.type, hd.flags, hd.stream_id)
            self.received.append((header, _payload_fields(frame.contents)))
            return 0

        def on_invalid_frame_recv(_session, frame, code, _user):
            self.invalid.append((frame.contents.hd.type, code))
            return 0

        def on_data_chunk_recv(_session, _flags, stream_id, data, length, _user):
            self.data.append((stream_id, ctypes.string_at(data, length)))
            return 0

        # Kept on the instance: the library holds only raw pointers.
        self._callbacks = {
            "begin_frame": _BEGIN_FRAME(on_begin_frame),
            "frame_recv": _FRAME_RECV(on_frame_recv),
            "invalid_frame_recv": _INVALID_FRAME_RECV(on_invalid_frame_recv),
            "data_chunk_recv": _DATA_CHUNK_RECV(on_data_chunk_recv),
        }
        callbacks = ng.new("session_callbacks_new")
        try:
            for event, callback in self._callbacks.items():
                name = f"nghttp2_session_callbacks_set_on_{event}_callback"
                getattr(ng.lib, name)(callbacks, callback)
            self._ptr = ng.new("session_server_new", callbacks, None)
        finally:
            ng.lib.nghttp2_session_callbacks_del(callbacks)

    def __del__(self):
        if getattr(self, "_ptr", None):
            self.ng.lib.nghttp2_session_del(self._ptr)

    def receive(self, data: bytes) -> int:
        """``nghttp2_session_mem_recv``: octets consumed, or a negative error."""
        return self.ng.lib.nghttp2_session_mem_recv(self._ptr, data, len(data))

    def send(self) -> bytes:
        """Drain ``nghttp2_session_mem_send``."""
        out = bytearray()
        chunk = _BYTES()
        while length := self.ng.call("session_mem_send", self._ptr, byref(chunk)):
            out += ctypes.string_at(chunk, length)
        return bytes(out)

    def submit_settings(self, entries: list[tuple[int, int]]) -> None:
        iv = (_SettingsEntry * max(1, len(entries)))(*entries)
        self.ng.call("submit_settings", self._ptr, 0, iv, len(entries))

    def submit_ping(self, payload: bytes, ack: bool = False) -> None:
        self.ng.call("submit_ping", self._ptr, int(ack), payload)

    def submit_window_update(self, stream_id: int, increment: int) -> None:
        self.ng.call("submit_window_update", self._ptr, 0, stream_id, increment)

    def submit_goaway(self, last_stream_id: int, error_code: int, debug: bytes) -> None:
        self.ng.call(
            "submit_goaway", self._ptr, 0, last_stream_id, error_code, debug, len(debug)
        )

    def submit_rst_stream(self, stream_id: int, error_code: int) -> None:
        self.ng.call("submit_rst_stream", self._ptr, 0, stream_id, error_code)

    def submit_priority(
        self, stream_id: int, depends_on: int, weight: int, exclusive: bool
    ) -> None:
        spec = _PrioritySpec(depends_on, weight, int(exclusive))
        self.ng.call("submit_priority", self._ptr, 0, stream_id, byref(spec))

    def submit_response(self, stream_id: int, headers: list[tuple[bytes, bytes]]) -> None:
        nva = _nv_array(headers)
        self.ng.call("submit_response", self._ptr, stream_id, nva, len(headers), None)


def error_frames(wire: bytes) -> list[tuple[str, int]]:
    """Every GOAWAY and RST_STREAM in ``wire`` as ``(name, error code)``,
    read with ``struct`` rather than the codec under test."""
    found, offset = [], 0
    while offset + 9 <= len(wire):
        length, kind = int.from_bytes(wire[offset : offset + 3], "big"), wire[offset + 3]
        if kind == 7:
            found.append(("GOAWAY", struct.unpack_from(">I", wire, offset + 13)[0]))
        elif kind == 3:
            found.append(("RST_STREAM", struct.unpack_from(">I", wire, offset + 9)[0]))
        offset += 9 + length
    return found


def _candidate_paths():
    found = ctypes.util.find_library("nghttp2")
    if found:
        yield found
    nghttpd = shutil.which("nghttpd")
    if nghttpd:
        lib = Path(nghttpd).parent.parent / "lib"
        yield from sorted(str(path) for path in lib.glob("libnghttp2.so*"))


@functools.cache
def libraries() -> list[Nghttp2]:
    """One loaded build per distinct version, oldest first."""
    by_version: dict[str, Nghttp2] = {}
    for path in _candidate_paths():
        try:
            ng = Nghttp2(path)
        except (OSError, AttributeError):  # not loadable, or too old
            continue
        by_version.setdefault(ng.version, ng)
    return sorted(by_version.values(), key=lambda ng: ng.version_num)


if __name__ == "__main__":
    for ng in libraries():
        print(f"nghttp2 {ng.version} ({ng.path})")
    sys.exit(0 if libraries() else 1)
