"""Round orchestration, server aggregation, messages, and cost accounting."""

import copy
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest

from fedcp import _native, federation
from fedcp.data import SynthSpec, generate_synthetic
from fedcp.errors import DimensionError, NumericOverflowError, ProtocolError
from fedcp.federation import (
    HEADER_BYTES,
    EpochMetrics,
    RoundMessage,
    ServerState,
    comm_cost,
    factor_snapshot,
    has_converged,
    init_server,
    message_bytes,
    pooled_rmse,
    run_experiment,
    run_round,
    server_update,
    worst_change,
)
from fedcp.privacy import PrivacyAccountant, PrivacyParams
from fedcp.solver import SolverParams, derive_site_seed, init_site_state, run_local_epoch
from fedcp.tensor import SparseTensorCOO


def _message(site_id, b, c, epoch=1):
    return RoundMessage(site_id=site_id, epoch=epoch, priv_B=np.asarray(b, float), priv_C=np.asarray(c, float))


def _blob(site_id, b, c, epoch=1):
    return _message(site_id, b, c, epoch).to_bytes()


def _server(b, c, n_sites):
    return ServerState(B_hat=np.asarray(b, float), C_hat=np.asarray(c, float), n_sites=n_sites)


class TestServerUpdate:
    def test_upload_equal_to_anchor_changes_nothing(self):
        server = _server([[1.0, 2.0]], [[3.0, 4.0]], 1)
        # the server advances in place; its first cohort has no change
        upload = _blob(0, [[1.0, 2.0]], [[3.0, 4.0]])
        assert server_update(server, [upload], eta=0.3, gamma=4.0) is None
        assert server.B_hat.tolist() == [[1.0, 2.0]]
        assert server.C_hat.tolist() == [[3.0, 4.0]]
        assert server.epoch == 1
        # the same upload again: nothing moves, and the change is 0
        again = _blob(0, [[1.0, 2.0]], [[3.0, 4.0]], epoch=2)
        assert server_update(server, [again], eta=0.3, gamma=4.0) == 0.0
        assert server.B_hat.tolist() == [[1.0, 2.0]]
        assert server.C_hat.tolist() == [[3.0, 4.0]]
        assert server.epoch == 2

    def test_eta_gamma_one_replaces_anchor(self):
        server = _server([[0.0]], [[0.0]], 1)
        server_update(server, [_blob(0, [[7.0]], [[-2.0]])], eta=0.5, gamma=2.0)
        assert server.B_hat.tolist() == [[7.0]]
        assert server.C_hat.tolist() == [[-2.0]]

    def test_symmetric_uploads_cancel(self):
        server = _server([[1.0]], [[1.0]], 2)
        uploads = [_blob(0, [[1.5]], [[2.0]]), _blob(1, [[0.5]], [[0.0]])]
        server_update(server, uploads, eta=0.1, gamma=3.0)
        assert server.B_hat.tolist() == [[1.0]]
        assert server.C_hat.tolist() == [[1.0]]

    def test_encoding_of_the_wrong_length_rejected(self):
        server = _server([[0.0]], [[0.0]], 2)
        blobs = [_blob(0, [[1.0]], [[1.0]]), _blob(1, [[2.0]], [[2.0]])[:-8]]
        with pytest.raises(ProtocolError,
                           match="^upload 1 of the cohort: message has 32 bytes, expected 40$"):
            server_update(server, blobs, 0.1, 1.0)
        assert server.epoch == 0 and server.uploads is None
        assert server.B_hat.tolist() == [[0.0]]

    def test_unknown_tag_rejected(self):
        server = _server([[0.0]], [[0.0]], 2)
        blobs = [_blob(1, [[2.0]], [[2.0]]), _blob(0, [[1.0]], [[1.0]])]
        blobs[1] = blobs[1][:16] + struct.pack("<q", 7) + blobs[1][24:]
        with pytest.raises(ProtocolError, match="^upload 1 of the cohort: unknown message tag 7$"):
            server_update(server, blobs, 0.1, 1.0)
        assert server.epoch == 0 and server.uploads is None

    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_encoding_that_is_not_bytes_rejected_on_both_paths(self, without_library, kernel,
                                                               wrap):
        if kernel == "compiled" and _native.LIBRARY is None:
            pytest.skip("no compiled library loaded")
        server = _server([[0.0]], [[0.0]], 2)
        server_update(server, [_blob(0, [[1.0]], [[1.0]]), _blob(1, [[2.0]], [[2.0]])], 0.1, 1.0)
        before = (server.B_hat.tobytes(), server.C_hat.tobytes(), server.epoch, server.uploads)
        # from_bytes decodes it, but the server takes bytes objects only
        blobs = [_blob(0, [[1.0]], [[1.0]], epoch=2), wrap(_blob(1, [[2.0]], [[2.0]], epoch=2))]
        assert RoundMessage.from_bytes(blobs[1], 1, 1, 1).site_id == 1
        with without_library() if kernel == "python" else nullcontext():
            with pytest.raises(ProtocolError,
                               match=f"^upload 1 of the cohort is a {wrap.__name__}, not bytes$"):
                server_update(server, blobs, 0.1, 1.0)
        assert (server.B_hat.tobytes(), server.C_hat.tobytes(), server.epoch,
                server.uploads) == before

    def test_missing_site_rejected(self):
        server = _server([[0.0]], [[0.0]], 2)
        with pytest.raises(ProtocolError):
            server_update(server, [_blob(0, [[1.0]], [[1.0]])], 0.1, 1.0)

    def test_duplicate_site_rejected(self):
        server = _server([[0.0]], [[0.0]], 2)
        uploads = [_blob(0, [[1.0]], [[1.0]]), _blob(0, [[2.0]], [[2.0]])]
        with pytest.raises(ProtocolError):
            server_update(server, uploads, 0.1, 1.0)

    def test_sum_taken_against_pre_update_anchor(self):
        server = _server([[0.0]], [[0.0]], 2)
        uploads = [_blob(0, [[1.0]], [[0.0]]), _blob(1, [[2.0]], [[0.0]])]
        server_update(server, uploads, eta=0.1, gamma=1.0)
        # both differences against the original anchor: 0.1 * (1 + 2)
        assert server.B_hat.tolist() == [[pytest.approx(0.3, abs=1e-15)]]

    @pytest.mark.parametrize("epoch", [1, 3])
    def test_wrong_epoch_rejected(self, epoch):
        # the server is at epoch 1 and takes only uploads for epoch 2
        server = ServerState(B_hat=np.zeros((1, 1)), C_hat=np.zeros((1, 1)), n_sites=2, epoch=1)
        uploads = [_blob(0, [[1.0]], [[1.0]], epoch=2), _blob(1, [[1.0]], [[1.0]], epoch=epoch)]
        with pytest.raises(ProtocolError, match=f"site 1 is for epoch {epoch}, expected epoch 2"):
            server_update(server, uploads, 0.1, 1.0)
        assert server.epoch == 1
        assert server.B_hat.tolist() == [[0.0]]


    @pytest.mark.parametrize(
        "factor, bad", [("priv_B", math.nan), ("priv_C", math.inf)], ids=["nan_in_B", "inf_in_C"]
    )
    def test_non_finite_upload_is_rejected_before_anything_changes(self, monkeypatch, factor, bad):
        # site 1 of 3 uploads one non-finite value
        original = federation.build_upload

        def poisoned(state, epoch, sigma):
            msg = original(state, epoch, sigma)
            if state.site_id != 1:
                return msg
            values = getattr(msg, factor).copy()
            values[2, 1] = bad
            return RoundMessage(**{**vars(msg), factor: values})

        monkeypatch.setattr(federation, "build_upload", poisoned)
        shards = _shards(n_sites=3)
        sites = [init_site_state(sh, 2, seed=t, site_id=t) for t, sh in enumerate(shards)]
        server = init_server(8, 9, 2, seed=1, n_sites=3)
        anchors = (server.B_hat.copy(), server.C_hat.copy())
        acc = PrivacyAccountant(n_sites=3, delta=1e-4)
        params = SolverParams(eta=0.01, gamma=1.0, mu=0.0, tau=1)
        with pytest.raises(ProtocolError, match="upload from site 1 holds a non-finite value"):
            run_round(sites, server, params, PrivacyParams(rho=1e-3), acc, 15e6)
        assert np.array_equal(server.B_hat, anchors[0])
        assert np.array_equal(server.C_hat, anchors[1])
        assert server.epoch == 0
        assert acc.ledger == []
        assert acc.rho_total == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_anchor_step_that_overflows_from_finite_uploads_is_rejected(self):
        server = _server([[-1e308]], [[0.0]], 1)
        with pytest.raises(NumericOverflowError, match="anchor step overflowed"):
            server_update(server, [_blob(0, [[1e308]], [[0.0]])], 0.1, 1.0)
        assert server.B_hat.tolist() == [[-1e308]]
        assert server.epoch == 0


def _bits(x):
    """A float's bits, so that NaN equals NaN; None stays None."""
    return None if x is None else struct.pack("<d", x)


def _pairs(values, split, rank):
    """Upload value vectors (B's ``split`` values then C's) as (B, C) pairs."""
    return [(v[:split].reshape(-1, rank), v[split:].reshape(-1, rank)) for v in values]


def _encoded(values, split, rank, epoch):
    """The encodings of upload value vectors, site t the t-th."""
    return [RoundMessage(t, epoch, b, c).to_bytes()
            for t, (b, c) in enumerate(_pairs(values, split, rank))]


@pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")
class TestCompiledServerStep:
    """``server_step`` against ``server_update``'s path without the library,
    the numpy step and ``worst_change``, bit for bit: the anchors, the
    change, the epoch, the held cohort and the error."""

    def _trail(self, anchors, cohorts, rank, eta=0.05, gamma=2.0):
        """Each cohort of value vectors offered to one server in turn, the
        sites in reverse order: after each, what it returned or raised, the
        anchors' bytes, the epoch and the held cohort."""
        b_hat, c_hat = anchors
        server = ServerState(B_hat=b_hat.copy(), C_hat=c_hat.copy(), n_sites=len(cohorts[0]))
        trail = []
        for values in cohorts:
            encoded = _encoded(values, b_hat.size, rank, server.epoch + 1)
            try:
                outcome = _bits(server_update(server, encoded[::-1], eta, gamma))
            except (ProtocolError, NumericOverflowError) as exc:
                outcome = (type(exc), str(exc))
            trail.append((outcome, server.B_hat.tobytes(), server.C_hat.tobytes(), server.epoch,
                          server.uploads))
        return trail

    def _both(self, without_library, anchors, cohorts, rank):
        compiled = self._trail(anchors, cohorts, rank)
        with without_library():
            assert self._trail(anchors, cohorts, rank) == compiled
        return compiled

    # blocks across the lengths where numpy's pairwise sum changes shape, and
    # the README default's 300 x 50 and 800 x 50
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("j_dim, k_dim, rank",
                             [(1, 7, 1), (8, 9, 1), (127, 129, 1), (136, 4099, 1), (15, 18, 3),
                              (300, 800, 50)])
    def test_same_bits_as_the_numpy_lines(self, without_library, n_sites, j_dim, k_dim, rank):
        rng = np.random.default_rng(n_sites * 1000 + j_dim + k_dim + rank)
        anchors = (rng.standard_normal((j_dim, rank)), rng.standard_normal((k_dim, rank)))
        split, size = j_dim * rank, (j_dim + k_dim) * rank
        cohorts = [[rng.standard_normal(size) for _ in range(n_sites)]]
        for scale in (1e-3, 0.5):
            # B changes most at some sites, C at others
            cohorts.append([v + scale * np.repeat(rng.uniform(1e-3, 1.0, 2), (split, size - split))
                            * rng.standard_normal(size) for v in cohorts[-1]])
        trail = self._both(without_library, anchors, cohorts, rank)
        assert trail[0][0] is None
        for step, prev, curr in zip(trail[1:], cohorts, cohorts[1:]):
            assert step[0] == _bits(worst_change(_pairs(prev, split, rank),
                                                 _pairs(curr, split, rank)))
        # the encodings held are the cohort's, in site order
        assert trail[-1][4] == _encoded(cohorts[-1], split, rank, 3)

    def test_signed_zeros(self, without_library):
        # the sum starts from 0.0: +0.0 - -0.0 and -0.0 - +0.0 in every order
        zeros = np.array([0.0, -0.0, 0.0, -0.0])
        anchors = (zeros.reshape(2, 2), zeros[::-1].reshape(2, 2))
        cohorts = [[np.resize(zeros, 8), np.resize(-zeros, 8)], [np.resize(-zeros, 8)] * 2]
        trail = self._both(without_library, anchors, cohorts, 2)
        assert trail[1][0] == _bits(0.0)

    def test_zero_previous_upload_takes_the_floor(self, without_library):
        anchors = (np.ones((2, 1)), np.ones((3, 1)))
        cohorts = [[np.zeros(5)], [np.full(5, 3.0)]]
        trail = self._both(without_library, anchors, cohorts, 1)
        # C has three values to B's two
        assert trail[1][0] == _bits(math.sqrt(27.0) / 1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("n_sites, worst", [(2, 0.5), (3, math.inf)])
    def test_overflowing_squares_keep_the_worst(self, without_library, n_sites, worst):
        # site 0's ratios are 0.5; site 1's B squares overflow, and inf / inf
        # is NaN, which never replaces the worst; site 2's C change squares
        # overflow over a norm that underflows to 0: inf
        anchors = (np.zeros((2, 1)), np.zeros((2, 1)))
        cohorts = [[np.full(4, 2.0), np.array([1e200, 1e200, 1.0, 1.0]),
                    np.array([1.0, 1.0, 1e-300, 1e-300])],
                   [np.full(4, 3.0), np.array([-1e200, -1e200, 1.0, 1.0]),
                    np.array([1.0, 1.0, 1e200, 1e200])]]
        cohorts = [c[:n_sites] for c in cohorts]
        assert self._both(without_library, anchors, cohorts, 1)[1][0] == _bits(worst)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "overflow"])
    def test_rejected_cohort_leaves_the_server_as_it_was(self, without_library, bad):
        rng = np.random.default_rng(7)
        anchors = (rng.standard_normal((3, 2)), rng.standard_normal((4, 2)))
        accepted = [rng.standard_normal(14) for _ in range(3)]
        rejected = [v.copy() for v in accepted]
        if bad == "overflow":
            # finite uploads whose step overflows
            rejected[0][5] = rejected[2][5] = 1.7e308
            want = (NumericOverflowError, "the anchor step overflowed")
        else:
            rejected[1][9] = rejected[2][0] = bad
            want = (ProtocolError, "upload from site 1 holds a non-finite value")
        later = [v + 0.1 for v in accepted]
        trail = self._both(without_library, anchors, [accepted, rejected, later], 2)
        assert trail[1][0] == want
        assert trail[1][1:] == trail[0][1:]
        # the next cohort is measured against the last accepted one
        assert trail[2][0] == _bits(worst_change(_pairs(accepted, 6, 2), _pairs(later, 6, 2)))
        assert trail[2][3] == 2


    def test_an_assigned_cohort_is_the_one_the_change_is_taken_against(self, without_library):
        # a cohort put in ``uploads`` between rounds is the one both paths
        # take the change against
        rng = np.random.default_rng(3)
        anchors = (rng.standard_normal((3, 2)), rng.standard_normal((4, 2)))
        first, other, last = ([rng.standard_normal(14) for _ in range(2)] for _ in range(3))
        changes = []
        for kernels in (nullcontext, without_library):
            server = ServerState(B_hat=anchors[0].copy(), C_hat=anchors[1].copy(), n_sites=2)
            with kernels():
                server_update(server, _encoded(first, 6, 2, 1), 0.05, 2.0)
                server.uploads = _encoded(other, 6, 2, 1)
                changes.append(_bits(server_update(server, _encoded(last, 6, 2, 2), 0.05, 2.0)))
        want = worst_change(_pairs(other, 6, 2), _pairs(last, 6, 2))
        assert changes == [_bits(want)] * 2
        assert want != worst_change(_pairs(first, 6, 2), _pairs(last, 6, 2))


class TestRoundMessage:
    def test_byte_size_formula(self):
        msg = _message(3, np.ones((5, 2)), np.ones((7, 2)))
        assert len(msg.to_bytes()) == HEADER_BYTES + 8 * (10 + 14)
        assert message_bytes(5, 7, 2) == HEADER_BYTES + 8 * (10 + 14)
        for wrong in (message_bytes(5, 7, 2) - 8, message_bytes(5, 7, 2) + 8):
            with pytest.raises(ProtocolError, match=f"expected {message_bytes(5, 7, 2)}"):
                RoundMessage.from_bytes(bytes(wrong), 5, 7, 2)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        msg = _message(2, rng.random((4, 3)), rng.random((5, 3)), epoch=9)
        back = RoundMessage.from_bytes(msg.to_bytes(), 4, 5, 3)
        assert back.site_id == 2
        assert back.epoch == 9
        assert np.array_equal(back.priv_B, msg.priv_B)
        assert np.array_equal(back.priv_C, msg.priv_C)

    def test_header_layout_little_endian(self):
        msg = _message(1, [[1.5]], [[2.5]], epoch=4)
        blob = msg.to_bytes()
        assert struct.unpack("<qqq", blob[:24]) == (1, 4, 1)
        assert struct.unpack("<d", blob[24:32])[0] == 1.5
        assert struct.unpack("<d", blob[32:40])[0] == 2.5

    def test_decoded_factors_are_read_only(self):
        back = RoundMessage.from_bytes(_message(0, [[1.0]], [[2.0]]).to_bytes(), 1, 1, 1)
        with pytest.raises(ValueError):
            back.priv_B[0, 0] = 5.0
        with pytest.raises(ValueError):
            back.priv_C[0, 0] = 5.0

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ProtocolError):
            RoundMessage.from_bytes(b"\x00" * 10, 1, 1, 1)

    @pytest.mark.parametrize("layout", ["C", "fortran", "strided", "float32", ">f8"])
    def test_encoding_is_the_header_then_each_factor_as_little_endian_float64(self, layout):
        # the bytes of the encoder that copied each factor into a bytes
        # object before the join, -0.0 included
        rng = np.random.default_rng(5)
        b, c = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        b[0, 0], b[3, 2], c[2, 1] = -0.0, 0.0, -0.0
        if layout == "fortran":
            b, c = np.asfortranarray(b), np.asfortranarray(c)
        elif layout == "strided":
            b, c = np.repeat(b, 2, axis=1)[:, ::2], np.repeat(c, 3, axis=0)[::3]
        elif layout in ("float32", ">f8"):
            b, c = b.astype(layout), c.astype(layout)
        blob = RoundMessage(site_id=2, epoch=7, priv_B=b, priv_C=c).to_bytes()
        assert blob == b"".join((
            struct.pack("<qqq", 2, 7, 1),
            np.ascontiguousarray(b, dtype="<f8").tobytes(),
            np.ascontiguousarray(c, dtype="<f8").tobytes(),
        ))
        back = RoundMessage.from_bytes(blob, 4, 5, 3)
        assert np.signbit(back.priv_B[0, 0]) and not np.signbit(back.priv_B[3, 2])
        assert np.array_equal(back.priv_B, b) and np.array_equal(back.priv_C, c)

    def test_message_carries_no_patient_field(self):
        fields = set(RoundMessage.__dataclass_fields__)
        assert fields == {"site_id", "epoch", "priv_B", "priv_C"}


def _shards(dims=(30, 8, 9), n_sites=3, seed=0, sparsity=2e-2, rank_true=2):
    _, shards, _ = generate_synthetic(
        SynthSpec(dims=dims, rank_true=rank_true, sparsity=sparsity, n_sites=n_sites, seed=seed)
    )
    return shards


class TestRunRound:
    def test_ledger_and_traffic_for_one_round(self):
        shards = _shards(n_sites=5, dims=(30, 8, 9))
        sites = [init_site_state(sh, 2, seed=t, site_id=t) for t, sh in enumerate(shards)]
        server = init_server(8, 9, 2, seed=1, n_sites=5)
        acc = PrivacyAccountant(n_sites=5, delta=1e-4)
        params = SolverParams(eta=0.01, gamma=1.0, mu=0.0, tau=1)
        metrics = run_round(sites, server, params, PrivacyParams(rho=1e-3), acc, 15e6)
        assert isinstance(metrics, EpochMetrics)
        assert len(acc.ledger) == 10
        per_message = HEADER_BYTES + 8 * (8 * 2 + 9 * 2)
        assert metrics.comm_bytes == 5 * 2 * per_message
        assert metrics.comm_bytes == comm_cost(8, 9, 2, 5, 1, 15e6)[0]
        assert metrics.comm_seconds == metrics.comm_bytes / 15e6
        assert metrics.epoch == 1
        assert metrics.rho_total == pytest.approx(2e-3, rel=1e-12)

    def _count_codec(self, monkeypatch):
        """The lengths of the encodings whose header was read, and of those
        ``RoundMessage.from_bytes`` decoded, as the run goes."""
        headers, decoded = [], []
        read_header, from_bytes = federation._read_header, RoundMessage.from_bytes.__func__

        def reading(blob, length):
            headers.append(len(blob))
            return read_header(blob, length)

        def decoding(cls, blob, *dims):
            decoded.append(len(blob))
            return from_bytes(cls, blob, *dims)

        monkeypatch.setattr(federation, "_read_header", reading)
        monkeypatch.setattr(RoundMessage, "from_bytes", classmethod(decoding))
        return headers, decoded

    def test_every_upload_reaches_the_server_as_bytes(self, without_library, monkeypatch):
        # on both paths the server reads each upload's header from its
        # encoding and decodes none, and traffic is the encodings' length
        headers, decoded = self._count_codec(monkeypatch)
        shards = _shards(n_sites=3)
        kernels = [nullcontext, without_library] if _native.LIBRARY else [without_library]
        for kernel in kernels:
            headers.clear()
            decoded.clear()
            sites = [init_site_state(sh, 2, seed=t, site_id=t) for t, sh in enumerate(shards)]
            server = init_server(8, 9, 2, seed=1, n_sites=3)
            acc = PrivacyAccountant(n_sites=3, delta=1e-4)
            params = SolverParams(eta=0.01, gamma=1.0, mu=0.0, tau=1)
            with kernel():
                metrics = run_round(sites, server, params, PrivacyParams(rho=1e-3), acc, 15e6)
            assert len(headers) == 3
            assert metrics.comm_bytes == 2 * sum(headers) == 2 * 3 * message_bytes(8, 9, 2)
            assert decoded == []

    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    def test_each_header_is_read_once_and_no_upload_decoded(self, without_library, monkeypatch,
                                                            kernel):
        # a 20-round, 3-site criterion-09 run: 60 uploads and 60 header reads
        # on both paths, and no decode, also where the round's change is
        # taken from the held cohort
        if kernel == "compiled" and _native.LIBRARY is None:
            pytest.skip("no compiled library loaded")
        headers, decoded = self._count_codec(monkeypatch)
        _, shards, _ = generate_synthetic(SynthSpec(
            dims=(45, 15, 18), rank_true=3, sparsity=5e-2, n_sites=3, heterogeneity={2: (1,)},
            seed=21))
        params = SolverParams(eta=0.035, gamma=5.0, mu=0.6, tau=3, clip=1.0)
        with without_library() if kernel == "python" else nullcontext():
            result = run_experiment(shards, rank=3, params=params, priv=PrivacyParams(rho=1.0),
                                    seed=3, fixed_epochs=20)
        assert len(headers) == 60
        assert decoded == []
        assert result.metrics[-1].change is not None

    @pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")
    @pytest.mark.parametrize("switches", [(3,), (1, 2), (2, 4)],
                             ids=["off", "off-on", "off-on-late"])
    def test_switching_the_library_mid_run_gives_the_run_without_it(
        self, without_library, switches
    ):
        # the library is switched off after round switches[0] and, where
        # given, on again after switches[1]: the held cohort crosses from one
        # server step to the other each time, and the round's change with it
        _, shards, _ = generate_synthetic(SynthSpec(
            dims=(45, 15, 18), rank_true=3, sparsity=5e-2, n_sites=3, seed=21))
        params = SolverParams(eta=0.035, gamma=5.0, mu=0.6, tau=3, clip=1.0)

        def run(python_rounds):
            sites = [init_site_state(sh, 3, seed=t, site_id=t) for t, sh in enumerate(shards)]
            server = init_server(15, 18, 3, seed=1, n_sites=3)
            acc = PrivacyAccountant(n_sites=3, delta=1e-4)
            metrics = []
            for epoch in range(1, 7):
                with without_library() if epoch in python_rounds else nullcontext():
                    metrics.append(run_round(sites, server, params, PrivacyParams(rho=1.0),
                                             acc, 15e6))
            return metrics, sites, server

        off = switches[0] + 1
        on = switches[1] + 1 if len(switches) > 1 else 7
        switched = run(set(range(off, on)))
        python = run(set(range(1, 7)))
        assert switched[0] == python[0]
        assert all(m.change is not None for m in switched[0][1:])
        for s, o in zip(switched[1], python[1]):
            assert all(x.tobytes() == y.tobytes() for x, y in zip((s.A, s.B, s.C), (o.A, o.B, o.C)))
        held = [(server.B_hat.tobytes(), server.C_hat.tobytes(), server.epoch, server.uploads)
                for server in (switched[2], python[2])]
        assert held[0] == held[1]

    @pytest.mark.parametrize("site_ids", [(0, 0), (0, 5)], ids=["duplicate", "outside_cohort"])
    def test_bad_cohort_rejected_before_the_ledger_records(self, site_ids):
        shards = _shards(n_sites=2)
        sites = [
            init_site_state(sh, 2, seed=t, site_id=i)
            for t, (sh, i) in enumerate(zip(shards, site_ids))
        ]
        server = init_server(8, 9, 2, seed=1, n_sites=2)
        acc = PrivacyAccountant(n_sites=2, delta=1e-4)
        params = SolverParams(eta=0.01, gamma=1.0, mu=0.0, tau=1)
        with pytest.raises(ProtocolError, match="expected one upload from each of 2 sites"):
            run_round(sites, server, params, PrivacyParams(rho=1e-3), acc, 15e6)
        assert acc.ledger == []
        assert acc.rho_total == 0.0
        assert server.epoch == 0

    def test_unbounded_clip_with_finite_rho_fails_before_site_work(self, monkeypatch):
        # clip = inf makes the sensitivity and sigma infinite; the round must
        # refuse before any site moves, not fail later on a non-finite residual
        made = []

        def recording(*args, **kwargs):
            made.append(init_site_state(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(federation, "init_site_state", recording)
        shards = _shards(n_sites=2)
        params = SolverParams(eta=0.01, gamma=1.0, mu=0.0, tau=1, clip=math.inf)
        with pytest.raises(ValueError, match="clip = inf"):
            run_experiment(shards, rank=2, params=params, priv=PrivacyParams(rho=1e-3),
                           seed=4, max_epochs=3)
        assert len(made) == 2
        for t, (state, shard) in enumerate(zip(made, shards)):
            fresh = init_site_state(shard, 2, derive_site_seed(4, t), t)
            assert np.array_equal(state.A, fresh.A)
            assert np.array_equal(state.B, fresh.B)
            assert np.array_equal(state.C, fresh.C)
        # without noise an unbounded clip is a plain unclipped run
        result = run_experiment(shards, rank=2, params=params, priv=PrivacyParams(rho=math.inf),
                                seed=4, fixed_epochs=3)
        assert [m.epoch for m in result.metrics] == [1, 2, 3]
        assert all(math.isfinite(m.rmse) for m in result.metrics)
        assert {(e.sigma, e.sensitivity) for e in result.accountant.ledger} == {(0.0, math.inf)}

    def test_noise_scale_that_overflows_fails_before_site_work(self, monkeypatch):
        # it used to fail after the round, as a non-finite upload from site 0
        worked = []
        monkeypatch.setattr(federation, "run_local_epoch", lambda *args: worked.append(args))
        with pytest.raises(ValueError, match=r"^rho = 1e-320 is too small"):
            run_experiment(_shards(n_sites=2), rank=2, params=SolverParams(gamma=1.0),
                           priv=PrivacyParams(rho=1e-320), seed=4, fixed_epochs=1)
        assert worked == []

    def test_zero_epochs_run_is_empty(self):
        shards = _shards(n_sites=2)
        result = run_experiment(
            shards, rank=2, params=SolverParams(gamma=1.0), priv=PrivacyParams(),
            seed=0, max_epochs=0,
        )
        assert result.metrics == []
        assert result.accountant.rho_total == 0.0
        assert not result.converged

    def test_serial_and_pooled_runs_are_bit_identical(self):
        shards = _shards(n_sites=4, dims=(40, 8, 9), sparsity=3e-2)
        kwargs = dict(
            rank=2,
            params=SolverParams(eta=0.01, gamma=1.0, mu=0.1, tau=2),
            priv=PrivacyParams(rho=1e-3),
            seed=5,
            max_epochs=4,
            tol=1e-12,
        )
        serial = run_experiment(shards, **kwargs)
        with ThreadPoolExecutor(max_workers=4) as pool:
            pooled = run_experiment(shards, **kwargs, pool=pool)
        assert serial.metrics == pooled.metrics
        for s, p in zip(serial.sites, pooled.sites):
            assert np.array_equal(s.A, p.A)
            assert np.array_equal(s.B, p.B)
            assert np.array_equal(s.C, p.C)

    def test_serial_and_pooled_runs_match_at_the_readme_feature_dims(self):
        # B and C hold 15,000 and 40,000 values, past BLAS ddot's threading size
        shards = _shards(n_sites=2, dims=(12, 300, 800), sparsity=1e-4, rank_true=3)
        kwargs = dict(
            rank=50,
            params=SolverParams(eta=0.01, gamma=1.0, mu=0.1, tau=1),
            priv=PrivacyParams(rho=math.inf),
            seed=2,
            max_epochs=4,
            tol=0.0062,  # the worst change between uploads falls below it in round 3
        )
        serial = run_experiment(shards, **kwargs)
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = run_experiment(shards, **kwargs, pool=pool)
        assert len(serial.metrics) == 3 and serial.converged
        assert serial.metrics == pooled.metrics
        assert pooled.converged
        for s, p in zip(serial.sites, pooled.sites):
            assert np.array_equal(s.A, p.A)
            assert np.array_equal(s.B, p.B)
            assert np.array_equal(s.C, p.C)

    def test_sites_keep_local_factors_but_adopt_anchors(self):
        shards = _shards(n_sites=2)
        sites = [init_site_state(sh, 2, seed=t, site_id=t) for t, sh in enumerate(shards)]
        server = init_server(8, 9, 2, seed=1, n_sites=2)
        acc = PrivacyAccountant(n_sites=2, delta=1e-4)
        params = SolverParams(eta=0.01, gamma=1.0, mu=0.0, tau=1)
        before_anchor = server.B_hat.copy()
        run_round(sites, server, params, PrivacyParams(rho=math.inf), acc, 15e6)
        # anchors moved; local factors are not overwritten by the broadcast
        assert not np.array_equal(server.B_hat, before_anchor)
        assert not np.array_equal(sites[0].B, server.B_hat)

    def test_warns_on_unstable_anchor_step(self):
        shards = _shards(n_sites=3)
        with pytest.warns(RuntimeWarning, match="unstable"):
            run_experiment(
                shards, rank=2, params=SolverParams(eta=0.2, gamma=5.0, mu=0.0),
                priv=PrivacyParams(rho=math.inf), seed=0, max_epochs=1,
            )

    def test_site_with_empty_shard_still_participates(self):
        # an empty shard uploads its (noised) unchanged factors and is billed
        full = SparseTensorCOO((4, 3, 3), [(0, 0, 0), (1, 1, 1)], [1.0, 2.0])
        empty = SparseTensorCOO((4, 3, 3), np.empty((0, 3), dtype=np.int64), np.empty(0))
        sites = [
            init_site_state(full, 2, seed=1, site_id=0),
            init_site_state(empty, 2, seed=2, site_id=1),
        ]
        before_b = sites[1].B.copy()
        server = init_server(3, 3, 2, seed=0, n_sites=2)
        acc = PrivacyAccountant(n_sites=2, delta=1e-4)
        params = SolverParams(eta=0.01, gamma=1.0, mu=0.0, tau=1)
        metrics = run_round(sites, server, params, PrivacyParams(rho=1e-3), acc, 15e6)
        assert np.array_equal(sites[1].B, before_b)  # nothing to learn from
        assert len(acc.ledger) == 4
        assert {e.site_id for e in acc.ledger} == {0, 1}
        assert metrics.comm_bytes == comm_cost(3, 3, 2, 2, 1, 15e6)[0]


def _worst_change(prev, curr):
    """The worst_change formula, written out."""
    return max(
        float(np.sqrt(np.sum((c - p) ** 2))) / max(float(np.sqrt(np.sum(p ** 2))), 1e-12)
        for prev_t, curr_t in zip(prev, curr)
        for p, c in zip(prev_t, curr_t)
    )


class TestRoundSums:
    """A round's rmse comes from the sites' own sums and its change from the
    decoded uploads; they must equal pooled_rmse and the has_converged
    formula over consecutive cohorts of uploads, bit for bit, serial and
    pooled, compiled and in Python."""

    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    @pytest.mark.parametrize(
        "rank, tau, mu, clip",
        [(1, 1, 0.0, 1.0), (1, 3, 0.4, math.inf), (2, 2, 0.3, 0.5), (3, 3, 0.6, 1.0),
         (50, 1, 0.1, 1.0), (50, 2, 0.0, math.inf)],
    )
    def test_round_figures_equal_the_references(
        self, without_library, monkeypatch, kernel, rank, tau, mu, clip
    ):
        if kernel == "compiled" and _native.LIBRARY is None:
            pytest.skip("no compiled library loaded")
        shards = _shards(n_sites=3, dims=(30, 12, 14), sparsity=4e-2)
        empty = SparseTensorCOO((5, 12, 14), np.empty((0, 3), dtype=np.int64), np.empty(0))
        shards = [shards[0], empty, *shards[1:]]
        params = SolverParams(eta=0.01, gamma=1.0, mu=mu, tau=tau, clip=clip)
        priv = PrivacyParams(rho=1e-2 if math.isfinite(clip) else math.inf)
        cohorts = []  # the decoded uploads of each round, as (B, C) pairs in site order

        def recording(server, blobs, eta, gamma):
            decoded = [RoundMessage.from_bytes(b, 12, 14, rank) for b in blobs]
            ordered = sorted(decoded, key=lambda m: m.site_id)
            cohorts.append([(m.priv_B.copy(), m.priv_C.copy()) for m in ordered])
            return server_update(server, blobs, eta, gamma)

        monkeypatch.setattr(federation, "server_update", recording)

        def three_rounds(pool):
            sites = [init_site_state(sh, rank, seed=t, site_id=t) for t, sh in enumerate(shards)]
            server = init_server(12, 14, rank, seed=1, n_sites=4)
            acc = PrivacyAccountant(n_sites=4, delta=1e-4)
            cohorts.clear()
            rounds = []
            for epoch in (1, 2, 3):
                prev = factor_snapshot(sites)
                anchors = (server.B_hat, server.C_hat)
                alone = [run_local_epoch(copy.deepcopy(s), anchors, params) for s in sites]
                metrics = run_round(sites, server, params, priv, acc, 15e6, pool=pool)
                curr = factor_snapshot(sites)
                assert metrics.clipped == sum(s.clipped for s in alone)
                assert metrics.rmse == pooled_rmse(sites)
                assert math.isfinite(clip) or metrics.clipped == 0
                rounds.append(metrics)
                if epoch == 1:
                    assert metrics.change is None
                    continue
                before, after = cohorts[-2:]
                assert metrics.change == _worst_change(before, after)
                assert not has_converged(before, after, metrics.change)
                assert has_converged(before, after, math.nextafter(metrics.change, math.inf))
                if priv.rho == math.inf:
                    # an upload is a copy of B and C: the old local-state figure
                    assert metrics.change == _worst_change(prev, curr)
            return rounds

        with without_library() if kernel == "python" else nullcontext():
            serial = three_rounds(None)
            with ThreadPoolExecutor(2) as pool:
                assert three_rounds(pool) == serial

    @pytest.mark.skipif(_native.LIBRARY is None, reason="no compiled library loaded")
    @pytest.mark.parametrize("shape", ["criterion_09", "rank_1"])
    def test_run_without_kernels_equals_the_compiled_run(self, without_library, shape):
        if shape == "criterion_09":
            spec = SynthSpec(dims=(45, 15, 18), rank_true=3, sparsity=5e-2, n_sites=3,
                             heterogeneity={2: (1,)}, seed=21)
            rank, params = 3, SolverParams(eta=0.035, gamma=5.0, mu=0.6, tau=3, clip=1.0)
        else:
            spec = SynthSpec(dims=(40, 10, 12), rank_true=1, sparsity=6e-2, n_sites=2, seed=8)
            rank, params = 1, SolverParams(eta=0.02, gamma=2.0, mu=0.8, tau=2, clip=1.0)
        _, shards, _ = generate_synthetic(spec)
        kwargs = dict(rank=rank, params=params, priv=PrivacyParams(rho=math.inf), seed=3,
                      max_epochs=12, tol=1e-3)

        def both_ways():
            serial = run_experiment(shards, **kwargs)
            with ThreadPoolExecutor(2) as pool:
                pooled = run_experiment(shards, **kwargs, pool=pool)
            return serial, pooled

        runs = both_ways()
        with without_library():
            runs += both_ways()
        first = runs[0]
        assert first.metrics[-1].change is not None
        # the clip fires in the criterion-09 run's first rounds, so the equal
        # metrics below compare non-zero clip counts
        assert shape == "rank_1" or first.metrics[0].clipped > 0
        for other in runs[1:]:
            assert other.metrics == first.metrics
            assert other.converged == first.converged
            for s, o in zip(first.sites, other.sites):
                assert all(np.array_equal(x, y) for x, y in zip((s.A, s.B, s.C), (o.A, o.B, o.C)))


class TestOverflowNamesItsSite:
    """A site's round that leaves the float range names the site, the round
    and the noise scale: at rho = 1e-300, sigma is about 1.4e148, and the
    anchors it moves send site 0's rows out of range in round 2."""

    _SPEC = SynthSpec(dims=(40, 12, 14), rank_true=3, sparsity=0.1, n_sites=2, seed=1)
    _WANT = ("site 0, round 2, noise scale sigma = 1.414213562373095e+148: "
             "residual became non-finite at entry (4, 11, 8)")

    @pytest.mark.parametrize("kernel", ["compiled", "python"])
    def test_serial_and_pooled_runs_give_one_message(self, without_library, kernel):
        if kernel == "compiled" and _native.LIBRARY is None:
            pytest.skip("no compiled library loaded")
        _, shards, _ = generate_synthetic(self._SPEC)
        kwargs = dict(rank=3, params=SolverParams(), priv=PrivacyParams(rho=1e-300), seed=1,
                      fixed_epochs=3)
        messages = []
        with without_library() if kernel == "python" else nullcontext():
            for pool in (None, ThreadPoolExecutor(2)):
                with pytest.raises(NumericOverflowError) as raised, pool or nullcontext():
                    run_experiment(shards, **kwargs, pool=pool)
                messages.append(str(raised.value))
        assert messages == [self._WANT] * 2

    def test_without_noise_no_sigma_is_named(self):
        # the site's own rows overflow; rho = inf adds no noise
        tensor = SparseTensorCOO((2, 1, 1), [(0, 0, 0), (1, 0, 0)], [1.0, 1.0])
        sites = [init_site_state(tensor, 1, seed=0, site_id=0)]
        sites[0].A[1] = 1e300
        sites[0].B[0] = 1e300
        server = init_server(1, 1, 1, seed=0, n_sites=1)
        params = SolverParams(eta=0.01, gamma=0.0, mu=0.0, tau=1, clip=1.0)
        acc = PrivacyAccountant(n_sites=1, delta=1e-4)
        # the curvature ||a o b||^2 is about 1e600, inf in floats
        with pytest.warns(RuntimeWarning, match="2/beta stability bound"), \
                pytest.raises(NumericOverflowError,
                              match=r"^site 0, round 1: residual became non-finite at entry "
                                    r"\(1, 0, 0\)$"):
            run_round(sites, server, params, PrivacyParams(rho=math.inf), acc, 15e6)


class TestStopRule:
    """The stop rule reads decoded uploads only, so when a run stops does not
    depend on values that no site releases."""

    def test_neighbours_stop_in_the_same_round(self):
        # at the old local-state rule these stopped after 6 and 5 rounds
        _, shards, _ = generate_synthetic(
            SynthSpec(dims=(200, 30, 40), rank_true=5, sparsity=2e-2, n_sites=5, seed=4)
        )
        values = shards[0].values.copy()
        values[0] += 10.0
        neighbour = [SparseTensorCOO(shards[0].dims, shards[0].coords, values), *shards[1:]]
        runs = [
            run_experiment(s, rank=5, params=SolverParams(), priv=PrivacyParams(rho=0.1),
                           seed=9, tol=0.009619, max_epochs=10)
            for s in (shards, neighbour)
        ]
        assert len(runs[0].metrics) == len(runs[1].metrics)
        assert runs[0].converged == runs[1].converged
        # the last cohort of uploads does not outlive the run
        assert runs[0].server.uploads is None

    def test_round_one_never_converges(self):
        shards = _shards(n_sites=2)
        kwargs = dict(rank=2, params=SolverParams(gamma=1.0), priv=PrivacyParams(rho=math.inf),
                      seed=4, tol=1e6)
        one = run_experiment(shards, **kwargs, fixed_epochs=1)
        assert one.metrics[0].change is None and not one.converged
        # the first round with an earlier upload to compare meets any tolerance
        result = run_experiment(shards, **kwargs, max_epochs=5)
        assert [m.change is None for m in result.metrics] == [True, False]
        assert result.converged


class TestCommCost:
    def test_reported_tensor_payload(self):
        # feature factor pair of a 202 x 316 feature grid at rank 50,
        # 8-byte values: a 207,200-byte payload one way, plus the header
        total, seconds = comm_cost(202, 316, 50, 1, 1, 15e6)
        assert total == 2 * (207_200 + HEADER_BYTES)
        assert seconds == total / 15e6
        assert 207_200 / 15e6 == pytest.approx(0.013813333333333334, abs=1e-9)

    def test_linear_in_site_count(self):
        b1, s1 = comm_cost(202, 316, 50, 1, 10, 15e6)
        b5, s5 = comm_cost(202, 316, 50, 5, 10, 15e6)
        b10, s10 = comm_cost(202, 316, 50, 10, 10, 15e6)
        assert (b5, b10) == (5 * b1, 10 * b1)
        assert Fraction(b5, b1) == 5
        assert s5 == pytest.approx(5 * s1, rel=1e-12)
        assert s10 == pytest.approx(10 * s1, rel=1e-12)

    def test_zero_epochs_cost_nothing(self):
        assert comm_cost(10, 10, 2, 3, 0, 15e6) == (0, 0.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            comm_cost(0, 10, 2, 3, 1, 15e6)


class TestHasConverged:
    def test_identical_states(self):
        prev = [(np.ones((2, 2)), np.ones((3, 2)))]
        curr = [(prev[0][0].copy(), prev[0][1].copy())]
        assert has_converged(prev, curr, 1e-9) is True

    def test_scaled_matrix_fails(self):
        prev = [(np.ones((2, 2)), np.ones((2, 2)))]
        curr = [(2 * np.ones((2, 2)), np.ones((2, 2)))]
        assert has_converged(prev, curr, 0.5) is False

    def test_boundary_is_strict(self):
        prev = [(np.array([[4.0]]), np.array([[4.0]]))]
        curr = [(np.array([[5.0]]), np.array([[4.0]]))]
        # relative change exactly 0.25
        assert has_converged(prev, curr, 0.25) is False
        assert has_converged(prev, curr, 0.2500001) is True

    def test_docstring_formula_bit_for_bit(self):
        # 40,000 values: above the size where BLAS ddot splits over threads
        rng = np.random.default_rng(11)
        p = rng.standard_normal((800, 50))
        c = p + 1e-3 * rng.standard_normal((800, 50))
        small = np.ones((2, 2))
        change = float(np.sqrt(np.sum((c - p) ** 2))) / max(float(np.sqrt(np.sum(p ** 2))), 1e-12)
        prev, curr = [(small, p)], [(small, c)]
        assert has_converged(prev, curr, change) is False
        assert has_converged(prev, curr, math.nextafter(change, math.inf)) is True

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            has_converged(
                [(np.ones((2, 2)), np.ones((2, 2)))],
                [(np.ones((3, 2)), np.ones((2, 2)))],
                0.1,
            )


class TestConsensusPull:
    def test_anchor_step_contracts_toward_fixed_uploads(self):
        rng = np.random.default_rng(3)
        n_sites, eta, gamma = 3, 0.05, 5.0
        assert 0 < eta * gamma * n_sites < 1
        factors = [(rng.random((4, 2)), rng.random((5, 2))) for _ in range(n_sites)]
        server = _server(rng.random((4, 2)), rng.random((5, 2)), n_sites)
        steps = []
        for _ in range(10):
            before = server.B_hat.copy()
            uploads = [
                _blob(t, b, c, epoch=server.epoch + 1) for t, (b, c) in enumerate(factors)
            ]
            server_update(server, uploads, eta, gamma)
            steps.append(float(np.linalg.norm(server.B_hat - before)))
        assert all(b < a for a, b in zip(steps, steps[1:]))


class TestEpochMetricsInvariant:
    def test_seconds_follow_bytes_exactly(self):
        m = EpochMetrics(1, 0.5, 1234, 1234 / 15e6, 0.002, 0.1, 0.09)
        assert m.comm_seconds == m.comm_bytes / 15e6
