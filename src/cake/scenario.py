"""End-to-end scenario harness: actors, documents, and an access matrix.

A scenario script names the actors with their certified attributes and the
documents to exchange, each with a sender, an access policy, a payload, and
its expectations: for every actor, whether it may read the document. A
script is checked when it is built (:meth:`ScenarioScript.validate`), so a
run never meets an invalid one.

Running a script provisions a fresh deployment, certifies every actor
through the user directory, and stores every document, in script order,
through the data manager as its sender: each sender opens one session, on
its first document, and stores all of its documents over it. Every actor
then requests a key, and each document is fetched once and decrypted with
every actor's key. The realized access matrix, the notarized ids and
locators, and the chain verification result land in the report, beside
each document's expectations.

With a seeded run the whole exchange is reproducible: identical seeds give
byte-identical ledgers and identical message ids and locators.

The built-in ``brie_script()`` models the import-export exchange the
project was driven by: an Economic Operator, a Courier, and Customs trading
four documents under per-document policies bound to process instance 29837.

That exchange is defined in one place, the script file ``brie.scenario``
shipped inside this package: ``brie_script()`` is that file, parsed. So with
the same seed ``cake scenario run`` of the file writes the same ledger as
``cake scenario brie``.

Script file format (see ``parse_script``)::

    [scenario]
    instance_attribute = 29837

    [actor courier]
    attributes = 29837 courier

    [document transport_order]
    sender = economic_operator
    policy = (29837 and ((economic_operator) or (courier)))
    payload = Transport order: pick up at warehouse 12.
    expect = economic_operator:allow courier:allow customs:deny
"""

from __future__ import annotations

import configparser
import functools
import json
import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from . import abe
from . import policy as policy_mod
from . import protocol
from .errors import CakeError

# Fixed certification timestamp so seeded runs are byte-reproducible.
SCENARIO_EPOCH = 1_700_000_000


class ScenarioError(CakeError):
    """A scenario step failed; the message names the step."""

    def __init__(self, step: str, message: str) -> None:
        super().__init__(f"[{step}] {message}")
        self.step = step


@dataclass(frozen=True)
class ScenarioDocument:
    name: str
    sender: str
    policy: str
    payload: bytes
    expect: dict[str, bool]  # actor -> allow


@dataclass(frozen=True)
class ScenarioScript:
    """Actors, each with its attributes, and documents, in script order.

    It is checked when built (:meth:`validate`), so every script is valid."""
    actors: tuple[tuple[str, frozenset[str]], ...]
    documents: tuple[ScenarioDocument, ...]
    instance_attribute: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        actor_names = [name for name, _ in self.actors]
        if len(set(actor_names)) != len(actor_names):
            raise ScenarioError("validate", "duplicate actor name")
        doc_names = [d.name for d in self.documents]
        if len(set(doc_names)) != len(doc_names):
            raise ScenarioError("validate", "duplicate document name")
        held = frozenset().union(*(attrs for _, attrs in self.actors))
        for doc in self.documents:
            if doc.sender not in actor_names:
                raise ScenarioError("validate",
                                    f"document {doc.name} sender {doc.sender!r} "
                                    "is not an actor")
            try:
                mentioned = policy_mod.attributes_of(policy_mod.parse_policy(doc.policy))
            except policy_mod.PolicyError as exc:
                raise ScenarioError("validate",
                                    f"document {doc.name} policy: {exc}")
            stray = mentioned - held - {self.instance_attribute}
            if stray:
                raise ScenarioError("validate",
                                    f"document {doc.name} policy mentions "
                                    f"attributes no actor holds: {sorted(stray)}")
        if any(set(doc.expect) != set(actor_names) for doc in self.documents):
            raise ScenarioError("validate",
                                "expectations must cover documents x actors")


@dataclass
class ScenarioReport:
    matrix: dict[str, dict[str, bool]]
    expected: dict[str, dict[str, bool]]
    message_ids: dict[str, str]  # document -> hex id
    locators: dict[str, str]
    ledger_height: int
    chain_ok: bool
    ledger_bytes: bytes = field(repr=False)

    @property
    def matrix_ok(self) -> bool:
        return self.matrix == self.expected

    def mismatches(self) -> list[tuple[str, str]]:
        return [(doc, actor)
                for doc, row in self.matrix.items()
                for actor, allowed in row.items()
                if self.expected[doc][actor] != allowed]

    def format_table(self) -> str:
        actors = list(next(iter(self.matrix.values()), {}))
        width = max([len("document")] + [len(d) for d in self.matrix])
        lines = ["  ".join(["document".ljust(width)] + actors)]
        for doc, row in self.matrix.items():
            cells = [("allow" if row[a] else "deny").ljust(len(a)) for a in actors]
            lines.append("  ".join([doc.ljust(width)] + cells))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "matrix": self.matrix,
            "expected": self.expected,
            "matrix_ok": self.matrix_ok,
            "message_ids": self.message_ids,
            "locators": self.locators,
            "ledger_height": self.ledger_height,
            "chain_ok": self.chain_ok,
        }, indent=2, sort_keys=True)


@functools.cache
def brie_script() -> ScenarioScript:
    """The import-export exchange: three actors, four documents.

    Parsed once per process from the packaged ``brie.scenario``; every call
    returns that same script, so callers read it and never change it.
    """
    return parse_script(
        resources.files(__package__).joinpath("brie.scenario").read_text())


def run_scenario(script: ScenarioScript, seed: Optional[int] = None) -> ScenarioReport:
    """Drive the full exchange and report the realized access matrix."""
    rng = random.Random(seed) if seed is not None else abe.SYSTEM_RANDOM
    deployment = protocol.provision(rng, clock=lambda: SCENARIO_EPOCH)

    identities: dict[str, protocol.Identity] = {}
    for name, _ in script.actors:
        identities[name] = protocol.Identity.generate(rng)
        deployment.register(identities[name])

    def step(label: str, fn):
        try:
            return fn()
        except CakeError as exc:
            raise ScenarioError(label, str(exc)) from exc

    with step("certify/connect", lambda: deployment.connect_ud(
            deployment.certifier, rng)) as ud_client:
        for name, attrs in script.actors:
            step(f"certify/{name}", lambda n=name, a=attrs: ud_client.certify(
                identities[n].address, a))

    message_ids: dict[str, bytes] = {}
    locators: dict[str, str] = {}
    sdm_clients: dict[str, protocol.ServiceClient] = {}
    try:
        for doc in script.documents:
            if doc.sender not in sdm_clients:
                sdm_clients[doc.sender] = step(
                    f"store/{doc.name}/connect", lambda d=doc:
                    deployment.connect_sdm(identities[d.sender], rng))
            message_id, locator = step(
                f"store/{doc.name}", lambda d=doc:
                sdm_clients[d.sender].store([(d.name, d.policy, d.payload)]))
            message_ids[doc.name] = message_id
            locators[doc.name] = locator
    finally:
        for sdm_client in sdm_clients.values():
            sdm_client.close()

    user_keys: dict[str, abe.UserKey] = {}
    for name, _ in script.actors:
        with step(f"key/{name}/connect", lambda n=name:
                  deployment.connect_skm(identities[n], rng)) as skm_client:
            user_keys[name] = step(f"key/{name}", skm_client.request_key)

    matrix: dict[str, dict[str, bool]] = {doc.name: {} for doc in script.documents}
    for doc in script.documents:
        container = step(f"read/{doc.name}", lambda d=doc: protocol.fetch_container(
            deployment.chain, deployment.store, message_ids[d.name]))
        for name, key in user_keys.items():
            results = step(f"read/{doc.name}/{name}", lambda k=key, c=container:
                           abe.decrypt_container(k, c))
            matrix[doc.name][name] = all(body is not None for _, body in results)

    return ScenarioReport(
        matrix=matrix,
        expected={doc.name: dict(doc.expect) for doc in script.documents},
        message_ids={doc: mid.hex() for doc, mid in message_ids.items()},
        locators=locators,
        ledger_height=deployment.chain.height,
        chain_ok=bool(deployment.chain.verify()),
        ledger_bytes=deployment.chain.serialize(),
    )


# --- script files ----------------------------------------------------------------

def parse_script(text: str) -> ScenarioScript:
    """Parse the declarative scenario file format shown in the module docs."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError("parse", f"bad script file: {exc}")

    instance: Optional[str] = None
    actors: list[tuple[str, frozenset[str]]] = []
    documents: list[ScenarioDocument] = []

    for section in parser.sections():
        body = parser[section]
        if section == "scenario":
            instance = body.get("instance_attribute") or None
            continue
        kind, _, name = section.partition(" ")
        name = name.strip()
        if kind == "actor" and name:
            attrs = frozenset(body.get("attributes", "").split())
            if not attrs:
                raise ScenarioError("parse", f"actor {name} has no attributes")
            actors.append((name, attrs))
        elif kind == "document" and name:
            for key in ("sender", "policy", "payload", "expect"):
                if key not in body:
                    raise ScenarioError("parse", f"document {name} misses {key!r}")
            documents.append(ScenarioDocument(
                name, body["sender"].strip(), body["policy"].strip(),
                body["payload"].strip().encode("utf-8"),
                _parse_expectations(name, body["expect"])))
        else:
            raise ScenarioError("parse", f"unknown section [{section}]")

    return ScenarioScript(tuple(actors), tuple(documents), instance)


def _parse_expectations(doc: str, text: str) -> dict[str, bool]:
    row: dict[str, bool] = {}
    for pair in text.split():
        actor, _, verdict = pair.partition(":")
        if verdict not in ("allow", "deny"):
            raise ScenarioError(
                "parse", f"document {doc}: expectation {pair!r} is not "
                "actor:allow or actor:deny")
        row[actor] = verdict == "allow"
    return row
