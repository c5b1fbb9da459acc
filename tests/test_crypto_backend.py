"""Backend, cost-accounting, digests/hash-chain, and HMAC-vector tests."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.backend import (
    CryptoContext,
    FastBackend,
    KeyAuthority,
    RealBackend,
    make_authority,
)
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import (
    HashChain,
    chain_step,
    combine_seq_and_digest,
    digest_concat,
    sha256_digest,
)
from repro.crypto.hmacvec import (
    HmacVector,
    PairwiseKeys,
    compute_hmac,
    make_hmac_vector,
    verify_hmac_entry,
)


@pytest.fixture(params=["fast", "real"])
def authority(request):
    return make_authority(request.param)


class TestBackends:
    def test_sign_verify_roundtrip(self, authority):
        authority.register(1)
        sig = authority.sign_as(1, b"hello")
        assert authority.verify(sig, b"hello")

    def test_tampered_data_rejected(self, authority):
        authority.register(1)
        sig = authority.sign_as(1, b"hello")
        assert not authority.verify(sig, b"hellp")

    def test_unknown_signer_rejected(self, authority):
        authority.register(1)
        sig = authority.sign_as(1, b"hello")
        forged = type(sig)(signer_id=999, payload=sig.payload, scheme=sig.scheme)
        assert not authority.verify(forged, b"hello")

    def test_cross_identity_signature_rejected(self, authority):
        authority.register(1)
        authority.register(2)
        sig = authority.sign_as(1, b"hello")
        relabeled = type(sig)(signer_id=2, payload=sig.payload, scheme=sig.scheme)
        assert not authority.verify(relabeled, b"hello")

    def test_register_idempotent(self, authority):
        authority.register(5)
        sig = authority.sign_as(5, b"x")
        authority.register(5)
        assert authority.verify(sig, b"x")

    def test_wrong_scheme_rejected(self):
        fast = make_authority("fast")
        real = make_authority("real")
        fast.register(1)
        real.register(1)
        sig = fast.sign_as(1, b"data")
        assert not real.verify(sig, b"data")

    def test_unknown_backend_name(self):
        with pytest.raises(ValueError):
            make_authority("quantum")

    def test_fast_payload_is_16_bytes(self):
        auth = make_authority("fast")
        auth.register(3)
        assert auth.sign_as(3, b"m").wire_size() == 16

    def test_real_payload_is_64_bytes(self):
        auth = make_authority("real")
        auth.register(3)
        assert auth.sign_as(3, b"m").wire_size() == 64


class TestCostAccounting:
    def make_context(self):
        charges = []
        authority = make_authority("fast")
        cost = CostModel()
        ctx = CryptoContext(7, authority, cost, charges.append)
        return ctx, charges, cost

    def test_sign_charges_sign_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.sign(b"data")
        assert charges == [cost.ecdsa_sign_ns]

    def test_verify_charges_verify_cost(self):
        ctx, charges, cost = self.make_context()
        sig = ctx.sign(b"data")
        charges.clear()
        ctx.verify(sig, b"data")
        assert charges == [cost.ecdsa_verify_ns]

    def test_mac_charges_hmac_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.mac(b"k" * 8, b"data")
        assert charges == [cost.hmac_ns]

    def test_digest_charges_sha_cost(self):
        ctx, charges, cost = self.make_context()
        ctx.digest(b"data")
        assert charges == [cost.sha256_ns]

    def test_threshold_ops_charge(self):
        ctx, charges, cost = self.make_context()
        share = ctx.threshold_share(b"qc")
        assert ctx.verify_threshold_share(share, b"qc")
        combined = ctx.combine_threshold(b"qc")
        assert ctx.verify_threshold_combined(combined, b"qc")
        assert charges == [
            cost.threshold_share_sign_ns,
            cost.threshold_share_verify_ns,
            cost.threshold_combine_ns,
            cost.threshold_verify_ns,
        ]

    def test_share_and_combined_are_domain_separated(self):
        ctx, _, _ = self.make_context()
        share = ctx.threshold_share(b"qc")
        assert not ctx.verify_threshold_combined(share, b"qc")

    def test_unbound_context_charges_nothing(self):
        authority = make_authority("fast")
        ctx = CryptoContext(7, authority, CostModel())
        ctx.sign(b"data")  # must not raise

    def test_scaled_cost_model(self):
        cost = CostModel().scaled(2.0)
        assert cost.ecdsa_sign_ns == CostModel().ecdsa_sign_ns * 2
        assert cost.hmac_ns == CostModel().hmac_ns * 2


class TestHashChain:
    def test_append_changes_head(self):
        chain = HashChain()
        initial = chain.head
        chain.append(sha256_digest(b"a"))
        assert chain.head != initial

    def test_head_at_historical_position(self):
        chain = HashChain()
        heads = [chain.head]
        for tag in b"abcdef":
            chain.append(sha256_digest(bytes([tag])))
            heads.append(chain.head)
        for i, head in enumerate(heads):
            assert chain.head_at(i) == head

    def test_truncate_restores_old_head(self):
        chain = HashChain()
        chain.append(sha256_digest(b"a"))
        head_after_one = chain.head
        chain.append(sha256_digest(b"b"))
        chain.truncate(1)
        assert chain.head == head_after_one
        assert len(chain) == 1

    def test_truncate_bounds(self):
        chain = HashChain()
        chain.append(sha256_digest(b"a"))
        with pytest.raises(IndexError):
            chain.truncate(5)

    def test_rebase_keeps_heads_from_new_genesis(self):
        chain, full = HashChain(), HashChain()
        for tag in b"abcde":
            chain.append(sha256_digest(bytes([tag])))
            full.append(sha256_digest(bytes([tag])))
        chain.rebase(3)
        assert len(chain) == 2 and chain.head_at(0) == full.head_at(3)
        chain.append(sha256_digest(b"f"))
        full.append(sha256_digest(b"f"))
        assert chain.head == full.head
        with pytest.raises(IndexError):
            chain.rebase(4)

    def test_verify_recomputes(self):
        digests = [sha256_digest(bytes([i])) for i in range(5)]
        chain = HashChain()
        for digest in digests:
            chain.append(digest)
        assert HashChain.verify(b"\x00" * 32, digests, chain.head)
        assert not HashChain.verify(b"\x00" * 32, digests[:-1], chain.head)

    def test_order_matters(self):
        a = HashChain()
        a.append(sha256_digest(b"x"))
        a.append(sha256_digest(b"y"))
        b = HashChain()
        b.append(sha256_digest(b"y"))
        b.append(sha256_digest(b"x"))
        assert a.head != b.head

    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=12))
    def test_rebuild_equals_incremental(self, items):
        chain = HashChain()
        current = b"\x00" * 32
        for item in items:
            digest = sha256_digest(item)
            chain.append(digest)
            current = chain_step(current, digest)
        assert chain.head == current


class TestDigestHelpers:
    def test_digest_concat_is_injective_on_boundaries(self):
        assert digest_concat(b"ab", b"c") != digest_concat(b"a", b"bc")

    def test_digest_concat_pinned_vectors(self):
        # Each part is prefixed with its 4-byte big-endian length.
        assert digest_concat(b"a", b"bc").hex() == (
            "b534ce16ac9c8b36823f39a395ce8e0e3c7ad9605b82b5444f18cadacd217a5d"
        )
        assert digest_concat(b"a", b"bc") == sha256_digest(b"\0\0\0\x01a\0\0\0\x02bc")
        assert digest_concat() == sha256_digest(b"")
        assert digest_concat(b"") == sha256_digest(b"\0\0\0\0")

    def test_combine_seq_and_digest(self):
        digest = sha256_digest(b"payload")
        combined = combine_seq_and_digest(7, digest)
        assert combined.startswith(digest)
        assert combined != combine_seq_and_digest(8, digest)


class TestHmacVectors:
    KEYS = [(i, bytes([i]) * 8) for i in range(4)]

    def test_vector_verifies_per_receiver(self):
        vector = make_hmac_vector(self.KEYS, b"msg")
        for rid, key in self.KEYS:
            assert verify_hmac_entry(vector, rid, key, b"msg")

    def test_wrong_key_fails(self):
        vector = make_hmac_vector(self.KEYS, b"msg")
        assert not verify_hmac_entry(vector, 0, b"\x99" * 8, b"msg")

    def test_missing_receiver_fails(self):
        vector = make_hmac_vector(self.KEYS, b"msg")
        assert not verify_hmac_entry(vector, 42, b"\x00" * 8, b"msg")
        with pytest.raises(KeyError):
            vector.tag_for(42)

    def test_merge_partial_vectors(self):
        first = make_hmac_vector(self.KEYS[:2], b"msg")
        second = make_hmac_vector(self.KEYS[2:], b"msg")
        merged = first.merge(second)
        assert merged.receivers() == [0, 1, 2, 3]
        for rid, key in self.KEYS:
            assert verify_hmac_entry(merged, rid, key, b"msg")

    def test_merge_dedupes(self):
        vector = make_hmac_vector(self.KEYS, b"msg")
        assert len(vector.merge(vector).tags) == len(vector.tags)

    def test_wire_size_scales_with_entries(self):
        small = make_hmac_vector(self.KEYS[:1], b"m")
        large = make_hmac_vector(self.KEYS, b"m")
        assert large.wire_size() == 4 * small.wire_size()


class TestPairwiseKeys:
    def test_symmetric(self):
        keys = PairwiseKeys(b"boot")
        assert keys.key_between(1, 2) == keys.key_between(2, 1)

    def test_distinct_pairs(self):
        keys = PairwiseKeys(b"boot")
        assert keys.key_between(1, 2) != keys.key_between(1, 3)

    def test_authenticate_and_verify(self):
        keys = PairwiseKeys(b"boot")
        vector = keys.authenticate(0, [1, 2, 3], b"payload")
        for receiver in (1, 2, 3):
            assert keys.verify(0, receiver, b"payload", vector)
        assert not keys.verify(0, 1, b"tampered", vector)


class TestComputeHmac:
    """The one MAC every simulated host and ``fast`` switch tag uses."""

    KEY = st.binary(min_size=1, max_size=32)

    @given(KEY, st.binary(max_size=64), st.integers(min_value=1, max_value=32))
    def test_tag_has_size_bytes(self, key, data, size):
        assert len(compute_hmac(key, data, size)) == size

    @given(KEY, KEY, st.binary(max_size=64))
    def test_verifies_only_under_same_key(self, key, other, data):
        assert compute_hmac(key, data) == compute_hmac(key, data)
        if other != key:
            assert compute_hmac(other, data, 16) != compute_hmac(key, data, 16)

    @given(KEY, st.binary(min_size=1, max_size=64), st.integers(min_value=0))
    def test_flipped_bit_fails(self, key, data, bit):
        bit %= len(data) * 8
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert compute_hmac(key, bytes(flipped), 16) != compute_hmac(key, data, 16)

    @given(KEY, st.binary(min_size=1, max_size=64))
    def test_truncated_input_fails(self, key, data):
        assert compute_hmac(key, data[:-1], 16) != compute_hmac(key, data, 16)

    @given(KEY, st.binary(max_size=64))
    def test_crypto_context_mac_is_compute_hmac(self, key, data):
        ctx = CryptoContext(1, make_authority("fast"), CostModel())
        assert ctx.mac(key, data) == compute_hmac(key, data)
        assert ctx.verify_mac(key, data, compute_hmac(key, data))

    @given(st.binary(max_size=64))
    def test_fast_backend_tag_is_bound_to_identity(self, data):
        backend = FastBackend()
        backend.register(1)
        backend.register(2)
        sig = backend.sign(1, data)
        relabeled = type(sig)(signer_id=2, payload=sig.payload, scheme=sig.scheme)
        assert backend.verify(sig, data)
        assert not backend.verify(relabeled, data)
