import dataclasses
import hashlib
import random

import pytest

from cake import codec, ledger
from cake.codec import CodecError


def signer(seed: int) -> ledger.Signer:
    return ledger.Signer.from_seed(random.Random(seed).randbytes(32))


SDM = signer(1)
CERTIFIER = signer(2)
OUTSIDER = signer(3)


def fresh_chain(log=None) -> ledger.Chain:
    return ledger.Chain(accounts=[SDM.public_bytes, CERTIFIER.public_bytes],
                        certifiers=[CERTIFIER.address], log=log)


def built_chain(log=None) -> ledger.Chain:
    """Five blocks: two stores, a certification, two stores in one block."""
    chain = fresh_chain(log)
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
    return ledger.Chain.load(chain.accounts.values(), chain.certifiers, chain.log)


def reseal(block: bytes) -> bytes:
    """A serialized block with its hash recomputed to match its body."""
    body = block[:-ledger.HASH_BYTES]
    return body + hashlib.sha256(body).digest()


def relink(block: bytes, prev_hash: bytes) -> bytes:
    """A serialized block with ``prev_hash`` as its link, resealed."""
    return reseal(block[:8] + prev_hash + block[8 + ledger.HASH_BYTES:])


class FailingLog(list):
    """A block log whose appends raise :attr:`failure` while it is set."""

    failure = None

    def append(self, block: bytes) -> None:
        if self.failure is not None:
            raise self.failure
        super().append(block)


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


class TestEncodingsKept:
    """A block in the log is the encoding of the block that was sealed; a
    transaction encodes to the same bytes whether it kept the encoding it
    was built or parsed from or is encoded afresh."""

    @staticmethod
    def encoded(block: ledger.Block) -> bytes:
        fresh = tuple(dataclasses.replace(tx) for tx in block.transactions)
        return ledger._block_body(block.height, block.prev_hash, fresh) + block.block_hash

    @staticmethod
    def assert_encodes_afresh(tx: ledger.Transaction) -> None:
        again = dataclasses.replace(tx)
        assert tx.canonical_bytes() == again.canonical_bytes()
        assert tx.signing_bytes() == again.signing_bytes()
        assert tx.tx_hash == again.tx_hash == \
            hashlib.sha256(again.canonical_bytes()).digest()

    def test_sealed_blocks_and_their_transactions(self):
        chain = fresh_chain()
        for n in range(3):
            for k in range(n):
                ledger.message_store(chain, SDM, f"id-{n}-{k}".encode(), f"loc-{k}")
            block = chain.seal_block()
            assert list(chain.log)[-1] == self.encoded(block)
            for tx in block.transactions:
                self.assert_encodes_afresh(tx)
        assert chain.height == len(chain.log) == 3

    def test_parsed_blocks_and_their_transactions(self):
        chain = built_chain()
        assert reload(chain).log == chain.log
        for data in chain.log:
            block = ledger.parse_block(data)
            assert self.encoded(block) == data
            for tx in block.transactions:
                self.assert_encodes_afresh(tx)


class TestExtend:
    def test_a_whole_frame_that_does_not_parse_raises(self):
        with pytest.raises(CodecError):
            fresh_chain().extend([*built_chain().log, b"\x00\x01\x02"])

    def test_seal_appends_to_the_log_and_replay_does_not(self):
        sealed = built_chain().log
        log = list(sealed)
        chain = fresh_chain(log)
        chain.extend(list(log))
        assert log == sealed and chain.height == 5
        ledger.message_store(chain, SDM, b"id-5", "loc-5")
        chain.seal_block()
        assert log[:5] == sealed and len(log) == chain.height == 6
        assert chain.verify().ok

    def test_a_failed_append_seals_no_block_and_applies_nothing(self):
        log = FailingLog()
        chain = built_chain(log)
        before = chain.serialize()
        log.failure = OSError("disk full")
        receipt = ledger.message_store(chain, SDM, b"id-5", "loc-5")
        with pytest.raises(OSError):
            chain.seal_block()
        assert chain.serialize() == before and chain.height == 5
        assert (receipt.status, receipt.error, receipt.height) == (
            ledger.STATUS_REJECTED, "OSError", None)
        with pytest.raises(ledger.RecordNotFound):
            chain.message_get(b"id-5")
        log.failure = None
        retried = ledger.message_store(chain, SDM, b"id-5", "loc-5")
        chain.seal_block()
        assert retried.status == ledger.STATUS_APPLIED
        assert chain.message_get(b"id-5").height == 5
        assert chain.next_nonce(SDM.address) == 8  # the dropped nonce stays used
        assert chain.verify().ok and reload(chain).verify().ok


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

    def test_rejected_transaction_stays_rejected_after_load(self):
        chain = fresh_chain()
        ledger.message_store(chain, SDM, b"id", "first")
        second = ledger.message_store(chain, SDM, b"id", "second")
        chain.seal_block()
        assert second.error == "AlreadyRecorded"
        loaded = reload(chain)
        assert loaded.message_get(b"id") == chain.message_get(b"id")
        assert loaded.message_get(b"id").locator == "first"
        assert loaded.next_nonce(SDM.address) == 3

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
        for message_id in (b"id-0", b"id-1"):
            assert loaded.message_get(message_id) == chain.message_get(message_id)
        assert loaded.next_nonce(sender.address) == chain.next_nonce(sender.address)
        assert loaded.verify().ok

    @pytest.mark.parametrize("contract,nonce,error", [
        (ledger.CONTRACT_MESSAGE_REGISTRY, 1, ledger.BadNonce),
        ("no_such_registry", 2, ledger.UnknownContract),
    ], ids=["stale-nonce", "unknown-contract"])
    def test_submit_refuses_before_the_pool(self, contract, nonce, error):
        chain = fresh_chain()
        ledger.message_store(chain, SDM, b"id-0", "loc-0")
        tx = ledger.make_transaction(SDM, contract, "store",
                                     codec.encode(ledger.STORE_ARGS, b"id-1", "loc-1"), nonce)
        with pytest.raises(error):
            chain.submit(tx)
        assert chain.next_nonce(SDM.address) == 2
        assert len(chain.seal_block().transactions) == 1

    @pytest.mark.parametrize("sender,contract,method", [
        (SDM, ledger.CONTRACT_MESSAGE_REGISTRY, "erase"),
        (SDM, ledger.CONTRACT_MESSAGE_REGISTRY, "certify"),
        (CERTIFIER, ledger.CONTRACT_ACTOR_REGISTRY, "store"),
    ], ids=["erase-message", "certify-message", "store-actor"])
    def test_an_unknown_method_is_rejected_at_the_seal(self, sender, contract, method):
        chain = fresh_chain()
        receipt = chain.submit(ledger.make_transaction(
            sender, contract, method,
            codec.encode(ledger.STORE_ARGS, b"id", "loc"), 1))
        chain.seal_block()
        assert (receipt.status, receipt.error) == (ledger.STATUS_REJECTED, "UnknownContract")
        with pytest.raises(ledger.RecordNotFound):
            chain.message_get(b"id")
        assert chain.verify().ok

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


# Each tamper edits the serialized blocks in a built chain's log, or loads
# them into another chain, and returns the chain to verify.

def edit_tx_argument(chain: ledger.Chain) -> ledger.Chain:
    # A locator in the second store of block 3, with the block hash redone.
    chain.log[3] = reseal(chain.log[3].replace(b"loc-3", b"loc-9"))
    return chain


def forge_block_hash(chain: ledger.Chain) -> ledger.Chain:
    chain.log[2] = chain.log[2][:-ledger.HASH_BYTES] + bytes(ledger.HASH_BYTES)
    return chain


def break_prev_hash(chain: ledger.Chain) -> ledger.Chain:
    chain.log[4] = relink(chain.log[4], bytes(ledger.HASH_BYTES))
    return chain


def swap_tx_after_sealing(chain: ledger.Chain) -> ledger.Chain:
    # The transactions of block 1 replaced by a properly signed one of
    # another chain, with the block hash left as sealed. A block's
    # transaction count starts after its height and link.
    other = ledger.Chain(accounts=[SDM.public_bytes])
    ledger.message_store(other, SDM, b"id-9", "loc-9")
    other.seal_block()
    start = 8 + ledger.HASH_BYTES
    block = chain.log[1]
    chain.log[1] = (block[:start] + other.log[0][start:-ledger.HASH_BYTES]
                    + block[-ledger.HASH_BYTES:])
    return chain


def forge_signature_and_reseal(chain: ledger.Chain) -> ledger.Chain:
    # A signature by another key, with the hashes of this block and every
    # later one redone to match. Block 1 holds one transaction, whose
    # signature ends just before the block hash.
    block = chain.log[1]
    signature_end = len(block) - ledger.HASH_BYTES
    forged = OUTSIDER.sign(b"other bytes")
    chain.log[1] = reseal(block[:signature_end - len(forged)] + forged
                          + block[signature_end:])
    for height in range(2, chain.height):
        chain.log[height] = relink(chain.log[height],
                                   chain.log[height - 1][-ledger.HASH_BYTES:])
    return chain


def replace_account_key(chain: ledger.Chain) -> ledger.Chain:
    # The same blocks, loaded by a chain whose accounts hold another key
    # in place of the certifier's.
    return ledger.Chain.load([SDM.public_bytes, OUTSIDER.public_bytes],
                             chain.certifiers, chain.log)


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
        assert tamper(chain).verify() == ledger.ChainVerification(False, height)

    @pytest.mark.parametrize("name", TAMPERS)
    def test_loaded_copy_reports_the_same_height(self, name):
        tamper, height = TAMPERS[name]
        tampered = tamper(built_chain())
        assert reload(tampered).verify() == ledger.ChainVerification(False, height)

    def test_a_replica_finds_a_forged_signature_below_its_checkpoint(self):
        # Verified at five blocks, then a sixth replayed from the log, as a
        # replica following a file does: the checkpoint is below the tip.
        source = built_chain()
        ledger.message_store(source, SDM, b"id-5", "loc-5")
        source.seal_block()
        replica = ledger.Chain.load(source.accounts.values(), source.certifiers,
                                    source.log[:5])
        assert replica.verify().ok
        replica.log.append(source.log[5])
        replica.extend(source.log[5:])
        forge_signature_and_reseal(replica)
        assert replica.verify() == ledger.ChainVerification(False, 1)

    def test_a_resealed_block_that_no_longer_parses_fails_at_its_height(self):
        # A byte after block 2's last transaction, with the hashes of that
        # block and every later one redone to match. Such a log does not
        # load, so this is not one of TAMPERS.
        chain = built_chain()
        assert chain.verify().ok
        block = chain.log[2]
        chain.log[2] = reseal(block[:-ledger.HASH_BYTES] + b"\x00" + block[-ledger.HASH_BYTES:])
        for height in range(3, chain.height):
            chain.log[height] = relink(chain.log[height],
                                       chain.log[height - 1][-ledger.HASH_BYTES:])
        with pytest.raises(CodecError):
            ledger.parse_block(chain.log[2])
        assert chain.verify() == ledger.ChainVerification(False, 2)

    def test_a_log_that_lost_its_last_block_fails_there(self):
        chain = built_chain()
        del chain.log[4]
        assert chain.verify() == ledger.ChainVerification(False, 4)

    def test_a_loaded_chain_checks_its_log_ends_at_its_tip(self):
        # A properly signed block on the same four blocks, in place of the
        # fifth one the chain was loaded from: a valid log, not this chain's.
        chain = built_chain()
        loaded = reload(chain)
        fork = ledger.Chain.load(chain.accounts.values(), chain.certifiers, chain.log[:4])
        ledger.message_store(fork, SDM, b"id-9", "loc-9")
        fork.seal_block()
        assert fork.verify().ok
        loaded.log[4] = fork.log[4]
        assert loaded.verify() == ledger.ChainVerification(False, 4)


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
        transactions = sum(len(ledger.parse_block(data).transactions)
                           for data in chain.log)
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

    def test_a_verified_chain_checks_only_later_blocks(self, signature_checks):
        loaded = reload(built_chain())
        ledger.message_store(loaded, SDM, b"id-5", "loc-5")
        loaded.seal_block()  # on blocks this chain has not checked
        signature_checks.clear()
        assert loaded.verify().ok
        assert len(signature_checks) == 7
        signature_checks.clear()
        ledger.message_store(loaded, SDM, b"id-6", "loc-6")
        loaded.seal_block()
        assert loaded.verify().ok and len(signature_checks) == 1  # at submit

    def test_accounts_are_read_only(self):
        chain = built_chain()
        with pytest.raises(TypeError):
            chain.accounts[CERTIFIER.address] = OUTSIDER.public_bytes
        assert chain.accounts[CERTIFIER.address] == CERTIFIER.public_bytes
