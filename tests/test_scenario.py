import hashlib
from pathlib import Path

import pytest

from cake import protocol, scenario
from cake.scenario import ScenarioDocument, ScenarioError, ScenarioScript


@pytest.fixture
def calls(monkeypatch):
    """Counts handshakes and container fetches, and records stored labels."""
    counts = {"handshake": 0, "fetch": [], "store": []}
    client_handshake = protocol.client_handshake
    fetch_container = protocol.fetch_container
    store = protocol.ServiceClient.store

    def counting_handshake(*args, **kwargs):
        counts["handshake"] += 1
        return client_handshake(*args, **kwargs)

    def counting_fetch(chain, blobs, message_id):
        counts["fetch"].append(message_id)
        return fetch_container(chain, blobs, message_id)

    def recording_store(self, slices):
        counts["store"].extend(label for label, _, _ in slices)
        return store(self, slices)

    monkeypatch.setattr(protocol, "client_handshake", counting_handshake)
    monkeypatch.setattr(protocol, "fetch_container", counting_fetch)
    monkeypatch.setattr(protocol.ServiceClient, "store", recording_store)
    return counts


def expected_handshakes(script: ScenarioScript) -> int:
    senders = {doc.sender for doc in script.documents}
    return 1 + len(senders) + len(script.actors)  # directory, stores, keys


ONE_BUSY_SENDER = """
[scenario]
instance_attribute = 7

[actor owner]
attributes = 7 owner

[actor clerk]
attributes = 7 clerk

[document first]
sender = owner
policy = 7 and owner
payload = one
expect = owner:allow clerk:deny

[document second]
sender = clerk
policy = 7 and (owner or clerk)
payload = two
expect = owner:allow clerk:allow

[document third]
sender = owner
policy = 7 and clerk
payload = three
expect = owner:deny clerk:allow

[document fourth]
sender = owner
policy = owner or clerk
payload = four
expect = owner:allow clerk:allow
"""


class TestRun:
    def test_brie_matrix_and_chain(self):
        report = scenario.run_scenario(scenario.brie_script(), seed=1)
        assert report.matrix_ok and report.mismatches() == []
        assert report.chain_ok
        assert report.ledger_height == 3 + 4  # one block per certify and store

    def test_same_seed_same_ledger_and_ids(self):
        first = scenario.run_scenario(scenario.brie_script(), seed=7)
        second = scenario.run_scenario(scenario.brie_script(), seed=7)
        assert first.ledger_bytes == second.ledger_bytes
        assert first.message_ids == second.message_ids
        assert first.locators == second.locators
        other = scenario.run_scenario(scenario.brie_script(), seed=8)
        assert other.ledger_bytes != first.ledger_bytes

    def test_seeded_ledger_is_pinned(self):
        # The seed-7 ledger of a known-good version. Provisioning draws the
        # master secret and the sdm, ud, skm and certifier identities from
        # the seeded generator in that order; a change to that order or to
        # any blob, transaction or block format changes these bytes.
        report = scenario.run_scenario(scenario.brie_script(), seed=7)
        assert hashlib.sha256(report.ledger_bytes).hexdigest() == (
            "d65b40c44ef56a065c58ba54caa68f08c17b18bc2abf65c0399307c17d22fbdf")

    def test_one_session_per_sender_and_one_fetch_per_document(self, calls):
        script = scenario.brie_script()
        report = scenario.run_scenario(script, seed=2)
        assert report.matrix_ok
        assert calls["handshake"] == expected_handshakes(script) == 6
        assert sorted(calls["fetch"]) == sorted(
            bytes.fromhex(h) for h in report.message_ids.values())

    def test_sender_with_several_documents(self, calls):
        script = scenario.parse_script(ONE_BUSY_SENDER)
        report = scenario.run_scenario(script, seed=3)
        assert report.matrix_ok and report.chain_ok
        assert calls["handshake"] == expected_handshakes(script) == 5
        assert calls["store"] == ["first", "second", "third", "fourth"]
        assert len(calls["fetch"]) == len(set(calls["fetch"])) == 4
        assert len(set(report.message_ids.values())) == 4

    def test_sessions_are_closed_when_a_store_fails(self, monkeypatch):
        opened, closed = [], []
        init, store, close = (protocol.ServiceClient.__init__,
                              protocol.ServiceClient.store,
                              protocol.ServiceClient.close)

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            opened.append(self)

        def failing_store(self, slices):
            if slices[0][0] == "declaration_of_conformity":
                raise protocol.ProtocolError("store refused")
            return store(self, slices)

        def recording_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(protocol.ServiceClient, "__init__", recording_init)
        monkeypatch.setattr(protocol.ServiceClient, "store", failing_store)
        monkeypatch.setattr(protocol.ServiceClient, "close", recording_close)
        with pytest.raises(ScenarioError) as info:
            scenario.run_scenario(scenario.brie_script(), seed=5)
        assert info.value.step == "store/declaration_of_conformity"
        assert len(opened) == 3  # the directory, then one per sender so far
        assert closed == opened

    def test_the_directory_session_is_closed_when_a_certify_fails(self, monkeypatch):
        closed = []
        close = protocol.ServiceClient.close

        def failing_certify(self, actor, attributes):
            raise protocol.ProtocolError("certify refused")

        def recording_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(protocol.ServiceClient, "certify", failing_certify)
        monkeypatch.setattr(protocol.ServiceClient, "close", recording_close)
        with pytest.raises(ScenarioError) as info:
            scenario.run_scenario(scenario.brie_script(), seed=6)
        assert info.value.step == "certify/economic_operator"
        assert len(closed) == 1

    def test_failed_step_is_named(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise protocol.ProtocolError("no container today")

        monkeypatch.setattr(protocol, "fetch_container", refuse)
        with pytest.raises(ScenarioError) as info:
            scenario.run_scenario(scenario.brie_script(), seed=4)
        assert info.value.step == "read/transport_order"


ACTOR = "[actor a]\nattributes = x\n"
DOCUMENT = ("[document d]\nsender = a\npolicy = x\npayload = p\n"
            "expect = a:allow\n")


class TestScriptErrors:
    @pytest.mark.parametrize("text,step,needle", [
        (ACTOR + DOCUMENT + "[ledger]\n", "parse", "unknown section"),
        (ACTOR + DOCUMENT.replace("payload = p\n", ""), "parse", "misses 'payload'"),
        (ACTOR + DOCUMENT.replace("a:allow", "a:maybe"), "parse", "expectation"),
        (ACTOR + DOCUMENT.replace("policy = x", "policy = x and y"), "validate",
         "no actor holds"),
        (ACTOR + ACTOR + DOCUMENT, "parse", "already exists"),
        (ACTOR + ACTOR.replace("[actor a]", "[actor  a]") + DOCUMENT, "validate",
         "duplicate actor"),
        (ACTOR + DOCUMENT.replace("a:allow", ""), "validate", "documents x actors"),
        (ACTOR + DOCUMENT + DOCUMENT.replace("[document d]", "[document  d]"),
         "validate", "duplicate document"),
        (ACTOR + DOCUMENT.replace("policy = x", "policy = (x"), "validate", "policy:"),
        (ACTOR.replace("attributes = x", "attributes ="), "parse", "no attributes"),
    ], ids=["unknown-section", "missing-key", "bad-expect", "stray-attribute",
            "duplicate-actor-section", "duplicate-actor-name", "missing-expectation",
            "duplicate-document-name", "bad-policy", "actor-without-attributes"])
    def test_raises_with_step(self, text, step, needle):
        with pytest.raises(ScenarioError) as info:
            scenario.parse_script(text)
        assert info.value.step == step
        assert needle in str(info.value)

    def test_valid_script_parses(self):
        script = scenario.parse_script(ACTOR + DOCUMENT)
        assert script.actors == (("a", frozenset({"x"})),)
        assert script.documents == (ScenarioDocument("d", "a", "x", b"p", {"a": True}),)

    def test_the_brie_script_file_is_the_built_in_scenario(self):
        path = Path(__file__).resolve().parents[1] / "src" / "cake" / "brie.scenario"
        assert scenario.parse_script(path.read_text()) == scenario.brie_script()

    def test_validate_rejects_unknown_sender(self):
        with pytest.raises(ScenarioError, match="is not an actor") as info:
            ScenarioScript((("a", frozenset({"x"})),),
                           (ScenarioDocument("d", "b", "x", b"p", {"a": True}),))
        assert info.value.step == "validate"

    @pytest.mark.parametrize("expect", [{}, {"a": True}, {"a": True, "b": False, "c": True}],
                             ids=["none", "one-missing", "one-stray"])
    def test_a_script_is_checked_when_built(self, expect):
        actors = (("a", frozenset({"x"})), ("b", frozenset({"x"})))
        with pytest.raises(ScenarioError, match="documents x actors") as info:
            ScenarioScript(actors, (ScenarioDocument("d", "a", "x", b"p", expect),))
        assert info.value.step == "validate"
