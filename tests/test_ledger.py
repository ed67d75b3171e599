import dataclasses
import hashlib
import random

import pytest

from cake import ledger
from cake.codec import CodecError


def signer(seed: int) -> ledger.Signer:
    return ledger.Signer.generate(random.Random(seed))


SDM = signer(1)
CERTIFIER = signer(2)
OUTSIDER = signer(3)


def fresh_chain() -> ledger.Chain:
    return ledger.Chain(accounts=[SDM.public_bytes, CERTIFIER.public_bytes],
                        certifiers=[CERTIFIER.address])


def built_chain() -> ledger.Chain:
    """Five blocks: two stores, a certification, two stores in one block."""
    chain = fresh_chain()
    ledger.message_store(chain, SDM, b"id-0", "loc-0")
    chain.seal_block()
    ledger.message_store(chain, SDM, b"id-1", "loc-1")
    chain.seal_block()
    ledger.actor_certify(chain, CERTIFIER, b"\x07" * ledger.ADDRESS_BYTES, "meta-0")
    chain.seal_block()
    ledger.message_store(chain, SDM, b"id-2", "loc-2")
    ledger.message_store(chain, SDM, b"id-3", "loc-3")
    chain.seal_block()
    ledger.message_store(chain, SDM, b"id-4", "loc-4")
    chain.seal_block()
    return chain


def reload(chain: ledger.Chain) -> ledger.Chain:
    return ledger.Chain.load(chain.accounts.values(), chain.certifiers,
                             chain.serialize())


def reseal(block: ledger.Block, **changes) -> ledger.Block:
    """The block with ``changes`` applied and a hash recomputed to match."""
    block = dataclasses.replace(block, **changes)
    return dataclasses.replace(
        block, block_hash=hashlib.sha256(block.body_bytes()).digest())


class TestReplay:
    def test_serialize_load_serialize_is_identical(self):
        chain = built_chain()
        data = chain.serialize()
        loaded = reload(chain)
        assert loaded.serialize() == data
        assert loaded.height == chain.height == 5
        assert loaded.verify().ok

    def test_loaded_state_answers_queries(self):
        chain = built_chain()
        loaded = reload(chain)
        for n in range(5):
            assert loaded.message_get(f"id-{n}".encode()) == \
                chain.message_get(f"id-{n}".encode())
        actor = b"\x07" * ledger.ADDRESS_BYTES
        assert loaded.actor_get(actor) == chain.actor_get(actor)
        assert loaded.next_nonce(SDM.address) == chain.next_nonce(SDM.address) == 6

    def test_same_inputs_give_same_bytes(self):
        assert built_chain().serialize() == built_chain().serialize()


def frame_ends(data: bytes) -> list[int]:
    """Offsets in chain file bytes where a whole block frame ends."""
    ends, pos = [0], 0
    while pos < len(data):
        pos += 4 + int.from_bytes(data[pos:pos + 4], "big")
        ends.append(pos)
    return ends


class TestExtend:
    def test_serialized_size_tracks_every_seal(self):
        chain = fresh_chain()
        assert chain.serialized_size == 0
        for n in range(3):
            ledger.message_store(chain, SDM, f"id-{n}".encode(), f"loc-{n}")
            chain.seal_block()
            assert chain.serialized_size == len(chain.serialize())

    def test_extend_at_every_cut_matches_load(self):
        data = built_chain().serialize()
        ends = frame_ends(data)
        for cut in range(len(data) + 1):
            chain = fresh_chain()
            consumed = chain.extend(data[:cut])
            assert consumed == max(end for end in ends if end <= cut)
            assert chain.serialized_size == consumed
            assert chain.height == ends.index(consumed)
            assert chain.extend(data[consumed:]) == len(data) - consumed
            assert chain.serialize() == data
            assert chain.next_nonce(SDM.address) == 6

    def test_load_keeps_the_whole_blocks_of_a_torn_file(self):
        data = built_chain().serialize()
        chain = ledger.Chain.load([SDM.public_bytes, CERTIFIER.public_bytes],
                                  [CERTIFIER.address], data[:-3])
        assert chain.height == 4
        assert chain.serialized_size == frame_ends(data)[4]
        assert chain.verify().ok
        with pytest.raises(ledger.RecordNotFound):
            chain.message_get(b"id-4")

    def test_a_whole_frame_that_does_not_parse_raises(self):
        data = built_chain().serialize()
        garbage = (3).to_bytes(4, "big") + b"\x00\x01\x02"
        with pytest.raises(CodecError):
            fresh_chain().extend(data + garbage)

    def test_on_seal_sees_sealed_blocks_not_replayed_ones(self):
        chain = fresh_chain()
        seen = []
        chain.on_seal = lambda sealed: seen.append((sealed, sealed.height))
        chain.extend(built_chain().serialize())
        assert seen == []
        ledger.message_store(chain, SDM, b"id-5", "loc-5")
        chain.seal_block()
        assert seen == [(chain, 6)]


class TestContracts:
    def test_only_certifiers_may_certify(self):
        chain = fresh_chain()
        receipt = ledger.actor_certify(chain, SDM, b"\x01" * ledger.ADDRESS_BYTES,
                                       "meta")
        chain.seal_block()
        assert receipt.status == ledger.STATUS_REJECTED
        assert receipt.error == "NotCertifier"
        with pytest.raises(ledger.RecordNotFound):
            chain.actor_get(b"\x01" * ledger.ADDRESS_BYTES)
        assert chain.verify().ok

    def test_message_store_is_write_once(self):
        chain = fresh_chain()
        first = ledger.message_store(chain, SDM, b"id", "first")
        chain.seal_block()
        second = ledger.message_store(chain, SDM, b"id", "second")
        chain.seal_block()
        assert first.status == ledger.STATUS_APPLIED
        assert second.status == ledger.STATUS_REJECTED
        assert second.error == "AlreadyRecorded"
        assert chain.message_get(b"id").locator == "first"
        assert chain.receipt(second.tx_hash) is second

    def test_rejected_transaction_stays_rejected_after_load(self):
        chain = fresh_chain()
        ledger.message_store(chain, SDM, b"id", "first")
        second = ledger.message_store(chain, SDM, b"id", "second")
        chain.seal_block()
        loaded = reload(chain)
        assert loaded.receipt(second.tx_hash).error == "AlreadyRecorded"
        assert loaded.message_get(b"id").locator == "first"

    @pytest.mark.parametrize("sender,contract,method", [
        (SDM, ledger.CONTRACT_MESSAGE_REGISTRY, "store"),
        (CERTIFIER, ledger.CONTRACT_ACTOR_REGISTRY, "certify"),
    ], ids=["store", "certify"])
    def test_malformed_arguments_are_rejected_without_wedging(self, sender,
                                                               contract, method):
        chain = fresh_chain()
        good = ledger.message_store(chain, SDM, b"id-0", "loc-0")
        bad = chain.submit(ledger.make_transaction(
            sender, contract, method, b"\x00", chain.next_nonce(sender.address)))
        block = chain.seal_block()
        assert block.height == 0 and len(block.transactions) == 2
        assert (good.status, good.height) == (ledger.STATUS_APPLIED, 0)
        assert (bad.status, bad.error, bad.height) == (
            ledger.STATUS_REJECTED, "CodecError", 0)
        assert chain.message_get(b"id-0").height == 0

        later = ledger.message_store(chain, SDM, b"id-1", "loc-1")
        assert chain.seal_block().height == 1
        assert later.status == ledger.STATUS_APPLIED
        assert chain.verify().ok
        loaded = reload(chain)
        assert [loaded.receipt(r.tx_hash) for r in (good, bad, later)] == \
            [good, bad, later]

    def test_unknown_sender_is_refused_at_submit(self):
        chain = fresh_chain()
        with pytest.raises(ledger.BadSignature):
            ledger.message_store(chain, OUTSIDER, b"id", "loc")

    def test_signature_by_another_key_is_refused_at_submit(self):
        chain = fresh_chain()
        tx = ledger.make_transaction(OUTSIDER, ledger.CONTRACT_MESSAGE_REGISTRY,
                                     "store", b"", 1)
        with pytest.raises(ledger.BadSignature):
            chain.submit(dataclasses.replace(tx, sender=SDM.address))


def edit_tx_argument(chain: ledger.Chain) -> None:
    block = chain.blocks[3]
    tx = block.transactions[1]
    forged = dataclasses.replace(
        tx, args=ledger._encode_store_args(b"id-3", "elsewhere"))
    chain.blocks[3] = reseal(block, transactions=(block.transactions[0], forged))


def forge_block_hash(chain: ledger.Chain) -> None:
    chain.blocks[2] = dataclasses.replace(chain.blocks[2], block_hash=bytes(32))


def break_prev_hash(chain: ledger.Chain) -> None:
    chain.blocks[4] = reseal(chain.blocks[4], prev_hash=bytes(32))


def swap_tx_after_sealing(chain: ledger.Chain) -> None:
    # A properly signed transaction of another chain, with the block hash
    # left as sealed.
    other = ledger.Chain(accounts=[SDM.public_bytes])
    ledger.message_store(other, SDM, b"id-9", "loc-9")
    block = chain.blocks[1]
    chain.blocks[1] = dataclasses.replace(
        block, transactions=other.seal_block().transactions)


def forge_signature_and_reseal(chain: ledger.Chain) -> None:
    # A signature by another key, with the hashes of this block and every
    # later one redone to match.
    block = chain.blocks[1]
    tx = dataclasses.replace(block.transactions[0],
                             signature=OUTSIDER.sign(b"other bytes"))
    chain.blocks[1] = reseal(block, transactions=(tx,))
    for height in range(2, chain.height):
        chain.blocks[height] = reseal(chain.blocks[height],
                                      prev_hash=chain.blocks[height - 1].block_hash)


def replace_account_key(chain: ledger.Chain) -> None:
    chain.accounts[CERTIFIER.address] = OUTSIDER.public_bytes


TAMPERS = {
    "edited-tx-argument": (edit_tx_argument, 3),
    "forged-block-hash": (forge_block_hash, 2),
    "broken-prev-hash": (break_prev_hash, 4),
    "tx-swapped-after-sealing": (swap_tx_after_sealing, 1),
    "signature-forged-and-resealed": (forge_signature_and_reseal, 1),
    "account-key-replaced": (replace_account_key, 2),
}


class TestTamper:
    @pytest.mark.parametrize("name", TAMPERS)
    def test_reports_exact_failed_height(self, name):
        tamper, height = TAMPERS[name]
        chain = built_chain()
        assert chain.verify() == ledger.ChainVerification(True)
        tamper(chain)
        assert chain.verify() == ledger.ChainVerification(False, height)

    @pytest.mark.parametrize("name", TAMPERS)
    def test_loaded_copy_reports_the_same_height(self, name):
        tamper, height = TAMPERS[name]
        chain = built_chain()
        tamper(chain)
        assert reload(chain).verify() == ledger.ChainVerification(False, height)


@pytest.fixture
def signature_checks(monkeypatch):
    """Counts Ed25519 verifications made through ``ledger.verify_signature``."""
    calls = []
    original = ledger.verify_signature

    def counting(public_key, signature, data):
        calls.append(public_key)
        return original(public_key, signature, data)

    monkeypatch.setattr(ledger, "verify_signature", counting)
    return calls


class TestSignatureRecord:
    def test_each_signature_is_checked_once_per_chain(self, signature_checks):
        chain = built_chain()
        transactions = sum(len(block.transactions) for block in chain.blocks)
        assert len(signature_checks) == transactions == 6  # one per submit
        signature_checks.clear()
        assert chain.verify().ok
        assert chain.verify().ok
        assert signature_checks == []

    def test_loaded_chain_is_checked_in_full(self, signature_checks):
        chain = built_chain()
        loaded = reload(chain)
        signature_checks.clear()
        assert loaded.verify().ok
        assert len(signature_checks) == 6

    def test_replaced_account_key_is_checked_again(self, signature_checks):
        chain = built_chain()
        signature_checks.clear()
        replace_account_key(chain)
        assert not chain.verify().ok
        assert signature_checks == [OUTSIDER.public_bytes]
