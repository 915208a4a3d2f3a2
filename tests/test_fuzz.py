"""Fuzzed decoders of outside input: the wire message, COO and factor files,
and the config file, and the server that takes a cohort of wire messages
against the cohort it holds.
Each takes arbitrary bytes and either decodes them or raises only its
documented error type; the file readers name a line.

Besides arbitrary bytes, each reader gets well-formed files with a few
bytes replaced by pieces of its own format or by bytes that are not UTF-8,
so that most inputs get past the first line."""

import math
import struct
from contextlib import nullcontext
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedcp.data import ExperimentConfig, load_config, read_coo, read_factors
from fedcp.errors import ConfigError, NumericOverflowError, ParseError, ProtocolError
from fedcp.federation import RoundMessage, ServerState, message_bytes, server_update
from fedcp.tensor import FactorizationResult, SparseTensorCOO

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

_PIECES = [
    b"0", b"1", b"-1", b"9" * 20, b"1.5", b"-0.0", b"1e999", b"nan", b"1_0", b"x",
    b"#", b"=", b" ", b"\t", b"\n", b"\r", b"\r\n", b"", b"\xef\xbc\x91",  # a fullwidth 1
    b"\xff", b"\xc3", b"\x80", b"\x00",
]
_ENDS = [b"\n", b"\r\n", b"\r"]
_VALUES = [b"1.5", b"-2.0", b"0.25", b"1e-300"]


def _replace(blob, edits):
    """``blob`` with the byte at each position (taken modulo its length)
    replaced by a piece."""
    for at, piece in edits:
        at %= len(blob) + 1
        blob = blob[:at] + piece + blob[at + 1:]
    return blob


def _files(well_formed):
    edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from(_PIECES)), max_size=3)
    return st.one_of(
        st.builds(_replace, well_formed, edits),
        st.binary(max_size=200),
    )


def _lines(rows, end):
    return b"".join(row + end for row in rows)


# records on a 2 x 2 x 2 grid, so that some files repeat a coordinate
_coo_files = _files(st.builds(
    lambda records, end: _lines([b"# dims 2 2 2", *records], end),
    st.lists(st.builds(
        lambda ijk, v: b" ".join([*ijk, v]),
        st.lists(st.sampled_from([b"0", b"1"]), min_size=3, max_size=3),
        st.sampled_from(_VALUES),
    ), max_size=8),
    st.sampled_from(_ENDS),
))

_factor_files = _files(st.integers(1, 2).flatmap(lambda rank: st.builds(
    lambda blocks, end: _lines(
        [row for block in blocks for row in [b"# rows %d %d" % (len(block), rank), *block]], end
    ),
    st.lists(
        st.lists(
            st.lists(st.sampled_from(_VALUES), min_size=rank, max_size=rank).map(b" ".join),
            max_size=3,
        ),
        min_size=2, max_size=4,
    ),
    st.sampled_from(_ENDS),
)))

_config_files = _files(st.builds(
    _lines,
    st.lists(st.builds(
        lambda key, value: key + b" = " + value,
        st.sampled_from([f.name.encode() for f in fields(ExperimentConfig)]),
        st.sampled_from([b"0", b"1", b"3", b"-1", b"0.5", b"1e-4", b"inf", b"nan", b"true",
                         b"4 3 2", b"0:1", b"0:1,2 1:0", b"out"]),
    ), max_size=6),
    st.sampled_from(_ENDS),
))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _decode(read, path, raw):
    """What ``read`` gives for a file holding ``raw``: its result, or the
    ParseError it raised, which must name a line of the file."""
    path.write_bytes(raw)
    try:
        return read(path)
    except ParseError as exc:
        last = max(1, raw.count(b"\n") + raw.count(b"\r") + 1)
        assert exc.line_no is not None and 1 <= exc.line_no <= last
        assert str(exc).startswith(f"line {exc.line_no}: ")
        return exc


@pytest.mark.parametrize("read, raw, error, message", [
    pytest.param(read_coo, b"# dims 2 \xff 2\n0 0 0 1.5\n", ParseError,
                 "line 1: byte 0xff is not UTF-8", id="coo-header"),
    pytest.param(read_coo, b"# dims 2 2 2\r\n0 0 0 1.5\r\n1 0 0 \xc3\n", ParseError,
                 "line 3: byte 0xc3 is not UTF-8", id="coo-record"),
    pytest.param(read_factors, b"# rows 1 1\n0.5\r# rows 1 1\n\x80\n", ParseError,
                 "line 4: byte 0x80 is not UTF-8", id="factors"),
    pytest.param(load_config, b"seed = 3\n\nrank = \xff\n", ConfigError,
                 "line 3: byte 0xff is not UTF-8", id="config"),
])
def test_a_byte_that_is_not_utf8_is_named_by_its_line(
    scratch_file, without_library, read, raw, error, message
):
    scratch_file.write_bytes(raw)
    for path in ("compiled", "python"):
        with without_library() if path == "python" else nullcontext():
            with pytest.raises(error) as exc:
                read(scratch_file)
        assert str(exc.value) == message


@FUZZ
@given(_coo_files)
def test_read_coo_raises_only_a_parse_error(scratch_file, without_library, raw):
    got = _decode(read_coo, scratch_file, raw)
    with without_library():
        python = _decode(read_coo, scratch_file, raw)
    if isinstance(got, SparseTensorCOO):
        assert isinstance(python, SparseTensorCOO)
        assert got.dims == python.dims
        assert got.coords.tobytes() == python.coords.tobytes()
        assert got.values.tobytes() == python.values.tobytes()
    else:
        assert str(got) == str(python)


@FUZZ
@given(_factor_files)
def test_read_factors_raises_only_a_parse_error(scratch_file, raw):
    got = _decode(read_factors, scratch_file, raw)
    assert isinstance(got, (FactorizationResult, ParseError))


@FUZZ
@given(_config_files)
def test_load_config_raises_only_a_config_error(scratch_file, raw):
    scratch_file.write_bytes(raw)
    try:
        cfg = load_config(scratch_file)
    except ConfigError:
        return
    # a config that loads builds every object a run makes from it
    cfg.synth_spec()
    cfg.solver_params()
    cfg.privacy_params()
    np.random.SeedSequence(cfg.seed)


_DIMS = (3, 4, 2)  # J, K, rank
_MESSAGE = RoundMessage(
    site_id=1, epoch=2,
    priv_B=np.arange(6.0).reshape(3, 2), priv_C=-np.arange(8.0).reshape(4, 2),
).to_bytes()


@FUZZ
@given(st.one_of(
    st.builds(
        _replace,
        st.just(_MESSAGE),
        st.lists(st.tuples(st.integers(0, len(_MESSAGE) - 1),
                           st.binary(min_size=1, max_size=1)), max_size=8),
    ),
    st.binary(max_size=2 * message_bytes(*_DIMS)),
    st.binary(min_size=message_bytes(*_DIMS), max_size=message_bytes(*_DIMS)),
))
def test_from_bytes_raises_only_a_protocol_error(blob):
    try:
        msg = RoundMessage.from_bytes(blob, *_DIMS)
    except ProtocolError:
        return
    assert msg.to_bytes() == blob


# a server of three sites over 2 x 1 and 3 x 1 anchors: five values an upload
_ANCHORS = (np.array([[0.5], [-1.0]]), np.array([[2.0], [0.0], [-0.25]]))
_SPECIAL = [0.0, -0.0, 1e-300, 1e200, -1e200, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf]
# one fault a cohort, at one upload, or none
_FAULTS = ["none"] * 8 + ["cut 1", "cut 8", "add 8", "tag", "bytearray", "id -1", "id 0",
                          "id 3", "epoch -1", "epoch +1", "short", "repeat"]


def _upload(site_id, epoch, values):
    return RoundMessage(site_id, epoch, np.reshape(values[:2], (2, 1)),
                        np.reshape(values[2:], (3, 1))).to_bytes()


def _cohort(spec, epoch):
    """The encodings a fuzzed cohort spec gives for a server at ``epoch - 1``."""
    order, values, fault, at = spec
    site_ids = list(order)
    epochs = [epoch] * 3
    if fault.startswith("id"):
        site_ids[at] = int(fault.split()[1])
    if fault.startswith("epoch"):
        epochs[at] += int(fault.split()[1])
    blobs = [_upload(*upload) for upload in zip(site_ids, epochs, values)]
    blob = blobs[at]
    blobs[at] = {
        "cut 1": blob[:-1], "cut 8": blob[:-8], "add 8": blob + bytes(8),
        "tag": blob[:16] + struct.pack("<q", 2) + blob[24:], "bytearray": bytearray(blob),
    }.get(fault, blob)
    if fault == "short":
        return blobs[:-1]
    return blobs + blobs[:1] if fault == "repeat" else blobs


# the sites' order, each one's values (finite, or with NaN, inf, values
# whose squares overflow or whose step does), the fault and where it goes
_cohorts = st.tuples(
    st.permutations(range(3)),
    st.lists(st.one_of(st.lists(st.floats(-4.0, 4.0), min_size=5, max_size=5),
                       st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_SPECIAL)),
                                min_size=5, max_size=5)),
             min_size=3, max_size=3),
    st.sampled_from(_FAULTS),
    st.integers(0, 2),
)


# what the server holds after one accepted cohort, as a caller may leave it
# between rounds: that cohort, or it with one fault and the error it gives
_HELD = {
    "accepted": (lambda held: held, None),
    "2 held": (lambda held: held[:2], "the server holds 2 uploads, expected 3"),
    "4 held": (lambda held: held + held[:1], "the server holds 4 uploads, expected 3"),
    "cut 8": (lambda held: [held[0], held[1][:-8], held[2]],
              "held upload 1: message has 56 bytes, expected 64"),
    "add 8": (lambda held: [held[0], held[1] + bytes(8), held[2]],
              "held upload 1: message has 72 bytes, expected 64"),
    "bytearray": (lambda held: [held[0], bytearray(held[1]), held[2]],
                  "held upload 1 is a bytearray, not bytes"),
}
_CLEAN = ((0, 1, 2), [[1.0] * 5] * 3, "none", 0)


def _state(server):
    return server.B_hat.tobytes(), server.C_hat.tobytes(), server.epoch, server.uploads


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@FUZZ
@given(st.sampled_from([None, *_HELD]), _cohorts)
@example("2 held", _CLEAN)
@example("4 held", _CLEAN)
@example("cut 8", _CLEAN)
@example("add 8", _CLEAN)
@example("bytearray", _CLEAN)
def test_server_update_raises_only_its_errors_and_then_changes_nothing(
    without_library, held, spec
):
    outcomes = []
    for path in ("compiled", "python"):
        with without_library() if path == "python" else nullcontext():
            server = ServerState(B_hat=_ANCHORS[0].copy(), C_hat=_ANCHORS[1].copy(), n_sites=3)
            if held is not None:
                # a cohort already accepted, so the round's change is taken
                server_update(server, [_upload(t, 1, [t, 1.0, -t, 0.5, 2.0]) for t in range(3)],
                              0.05, 2.0)
                server.uploads = _HELD[held][0](server.uploads)
            before = _state(server)
            try:
                change = server_update(server, _cohort(spec, server.epoch + 1), 0.05, 2.0)
                outcome = None if change is None else struct.pack("<d", change)
            except (ProtocolError, NumericOverflowError) as exc:
                outcome = (type(exc), str(exc))
                assert _state(server) == before
            outcomes.append((outcome, _state(server)))
    assert outcomes[0] == outcomes[1]
    # a faulty held cohort is refused before the step reads it
    if held is not None and _HELD[held][1] is not None and spec[2] == "none":
        assert outcomes[0][0] == (ProtocolError, _HELD[held][1])
