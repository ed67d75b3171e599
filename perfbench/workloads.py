"""The benchmark's three workloads, driven through cake's public API only.

All three are closed loop: each caller issues its next operation only after
the previous one returned, as a data owner waits for its notarization
receipt. Inputs come from the workload seed alone.

* ``brie``: repeated ``scenario.run_scenario(brie_script(), s)`` with a fresh
  seed ``s`` per run; one caller, in-process transport.
* ``exchange``: a generated many-actor exchange in one process; one caller,
  in-process transport; almost every operation is a ``client_read``.
* ``serve``: ``cake serve`` in its own process on a disk home; two client
  threads in this process, one connection each at a time over TCP: one
  stores, the other requests keys.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from cake import cli, protocol, scenario
from cake import policy as policy_mod

import spans
from measure import OpLog, peak_rss_mb

HERE = Path(__file__).resolve().parent
# Scratch space for serve homes, server logs and written-out spans.
WORK = HERE.parent / ".perfbench"

# Client operations of the timed phase, counted by ops_per_s. Certification
# is set-up in exchange and serve; brie counts its own.
TIMED_OPS = ("store", "key", "read")

ROLES = [f"role_{i:02d}" for i in range(32)]


def pin_to_one_cpu() -> None:
    """Keep this thread, and the threads it starts later, on one CPU.

    The in-process workloads are one closed-loop caller whose client and
    service threads take turns under the interpreter lock. Left free, the
    scheduler moves them between cores at every hand-off, and the run times
    the host more than cake: on a 2-core machine brie's median scenario read
    27-46 ms unpinned and 21-24 ms pinned, back to back. ``serve`` is not
    pinned; its two processes do run at the same time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@dataclass
class Result:
    """What one workload run measured."""
    log: OpLog = field(default_factory=OpLog)
    setup_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    ops_completed: int = 0
    peak_rss_mb: float = 0.0
    verify_s: list[float] = field(default_factory=list)
    server_trace: Optional[dict] = None  # span summary of the cake serve process


def count_client_ops(log: OpLog) -> int:
    return sum(len(log.samples[kind]) for kind in TIMED_OPS)


def or_heavy_policy(rng: random.Random, head: str, leaves: int,
                    alternatives: list[str], always: Optional[str] = None) -> str:
    """``(head and (a or (b and c) or ...))`` with ``leaves`` leaves in all.

    ``always``, when given, is one of the alternatives, so a key holding
    ``head`` and ``always`` satisfies the policy.
    """
    parts = [always] if always else []
    remaining = leaves - 1 - len(parts)
    while remaining:
        if remaining >= 2 and rng.random() < 0.25:
            a, b = rng.sample(alternatives, 2)
            parts.append(f"({a} and {b})")
            remaining -= 2
        else:
            parts.append(rng.choice(alternatives))
            remaining -= 1
    rng.shuffle(parts)
    return f"({head} and ({' or '.join(parts)}))"


# --- brie --------------------------------------------------------------------

# Set-ups per run, spread over the timed phase (one every BRIE_MIN_RUNS //
# BRIE_SETUPS scenarios) so that their median sees the same host as the
# scenarios do, not just the run's first second.
BRIE_SETUPS = 40
BRIE_RERUNS = 3
# A run keeps going past its deadline until it has this many scenarios, so
# that its p99 has ten samples beyond it; it gives up at four deadlines.
BRIE_MIN_RUNS = 1000


def run_brie(seed: int, seconds: float, tracer: Optional[spans.Tracer]) -> Result:
    pin_to_one_cpu()
    result = Result()
    log = result.log
    seeds = random.Random(f"brie/{seed}")
    uninstall = spans.install(tracer) if tracer else None

    def scenario_ok(report: scenario.ScenarioReport) -> bool:
        return report.matrix_ok and report.chain_ok

    def set_up() -> float:
        """Build and validate the script, then run one warm-up scenario."""
        nonlocal script
        start = time.perf_counter()
        script = scenario.brie_script()
        script.validate()
        run_seed = seeds.getrandbits(32)
        log.run("warmup", lambda: scenario.run_scenario(script, run_seed),
                scenario_ok)
        result.setup_s.append(time.perf_counter() - start)
        return result.setup_s[-1]

    script = scenario.brie_script()
    set_up()
    ops_per_run = (2 * len(script.actors) + len(script.documents)
                   + len(script.actors) * len(script.documents))
    ledgers: dict[int, bytes] = {}
    setup_every = BRIE_MIN_RUNS // BRIE_SETUPS
    set_up_in_timed = 0.0
    start = time.perf_counter()
    deadline, limit = start + seconds, start + 4 * seconds
    while (time.perf_counter() < deadline + set_up_in_timed
           or len(log.samples["scenario"]) < BRIE_MIN_RUNS
           and time.perf_counter() < limit):
        done = len(log.samples["scenario"])
        if done and done % setup_every == 0 and len(result.setup_s) < BRIE_SETUPS:
            set_up_in_timed += set_up()
        run_seed = seeds.getrandbits(32)
        report = log.run("scenario", lambda: scenario.run_scenario(script, run_seed),
                         scenario_ok)
        if report is not None and len(ledgers) < BRIE_RERUNS:
            ledgers[run_seed] = report.ledger_bytes
    result.timed_s = time.perf_counter() - start - set_up_in_timed
    result.ops_completed = ops_per_run * len(log.samples["scenario"])
    if uninstall:
        uninstall()

    # Same seed, same ledger: re-run a few seeds outside the timed phase.
    for run_seed, ledger_bytes in ledgers.items():
        log.run("rerun", lambda: scenario.run_scenario(script, run_seed),
                lambda report: report.ledger_bytes == ledger_bytes)
    result.peak_rss_mb = peak_rss_mb()
    return result


# --- exchange ------------------------------------------------------------------

EXCHANGE_ACTORS = 40
EXCHANGE_DOCUMENTS = 99
EXCHANGE_LEAVES = (4, 16, 64)
EXCHANGE_PAYLOADS = (256, 4096, 65536)
# Each actor holds three roles, and each document's process-instance
# attribute is held by a fixed share of the actors. A document's policy is
# redrawn until exactly the share of actors below for its leaf count may read
# it, so that half of all reads are denied. Every seed thus gets the same mix
# of leaf counts, payload sizes and allowed reads: seeds differ in detail but
# not in cost, and the median read does not move with the luck of the draw.
EXCHANGE_ROLES_PER_ACTOR = 3
EXCHANGE_INSTANCE_SHARE = 0.85
EXCHANGE_ALLOWED_SHARE = {4: 0.15, 16: 0.5, 64: 0.85}


@dataclass(frozen=True)
class Document:
    owner: int
    policy: str
    payload: bytes


@dataclass(frozen=True)
class ExchangeSpec:
    actors: tuple[frozenset[str], ...]
    documents: tuple[Document, ...]


def generate_exchange(seed: int, actors: int = EXCHANGE_ACTORS,
                      documents: int = EXCHANGE_DOCUMENTS) -> ExchangeSpec:
    """Actors' attribute sets and the documents owners store, from the seed."""
    rng = random.Random(f"exchange/{seed}")
    instances = [f"proc_{seed % 100000:05d}_{i:04d}" for i in range(documents)]
    holders = round(EXCHANGE_INSTANCE_SHARE * actors)
    held: list[set[str]] = [set(rng.sample(ROLES, EXCHANGE_ROLES_PER_ACTOR))
                            for _ in range(actors)]
    for instance in instances:
        for a in rng.sample(range(actors), holders):
            held[a].add(instance)
    shapes = [(leaves, size) for size in EXCHANGE_PAYLOADS for leaves in EXCHANGE_LEAVES]
    docs = []
    for i, instance in enumerate(instances):
        leaves, size = shapes[i % len(shapes)]
        target = round(EXCHANGE_ALLOWED_SHARE[leaves] * actors)
        while True:
            policy = or_heavy_policy(rng, instance, leaves, ROLES)
            ast = policy_mod.parse_policy(policy)
            if sum(policy_mod.evaluate(ast, attrs) for attrs in held) == target:
                break
        docs.append(Document(owner=rng.randrange(actors), policy=policy,
                             payload=rng.randbytes(size)))
    return ExchangeSpec(tuple(map(frozenset, held)), tuple(docs))


def access_oracle(spec: ExchangeSpec) -> list[list[bool]]:
    """expected[document][actor], from ``policy.evaluate`` alone."""
    asts = [policy_mod.parse_policy(doc.policy) for doc in spec.documents]
    return [[policy_mod.evaluate(ast, attrs) for attrs in spec.actors] for ast in asts]


def read_matches(allowed: bool, payload: bytes,
                 results: list[tuple[str, Optional[bytes]]]) -> bool:
    """A read is correct when its access matches the oracle and an allowed
    read returns exactly the stored payload."""
    bodies = [body for _, body in results]
    if not allowed:
        return all(body is None for body in bodies)
    return bodies == [payload]


def exchange_pass(spec: ExchangeSpec, expected: list[list[bool]], pass_seed: int,
                  result: Result) -> None:
    log = result.log
    rng = random.Random(pass_seed)
    start = time.perf_counter()
    deployment = protocol.provision(rng)
    identities = [protocol.Identity.generate(rng) for _ in spec.actors]
    for identity in identities:
        deployment.register(identity)
    ud = log.run("connect", lambda: deployment.connect_ud(deployment.certifier, rng))
    if ud is not None:
        for identity, attrs in zip(identities, spec.actors):
            log.run("certify", lambda: ud.certify(identity.address, attrs))
        ud.close()
    timed_start = time.perf_counter()
    result.setup_s.append(timed_start - start)

    message_ids: list[Optional[bytes]] = [None] * len(spec.documents)
    for owner, identity in enumerate(identities):
        mine = [i for i, doc in enumerate(spec.documents) if doc.owner == owner]
        if not mine:
            continue
        sdm = log.run("connect", lambda: deployment.connect_sdm(identity, rng))
        if sdm is None:
            continue
        for i in mine:
            doc = spec.documents[i]
            stored = log.run("store", lambda: sdm.store(
                [("body", doc.policy, doc.payload)]))
            if stored is not None:
                message_ids[i] = stored[0]
        sdm.close()

    def request_key(identity: protocol.Identity):
        skm = deployment.connect_skm(identity, rng)
        try:
            return skm.request_key()
        finally:
            skm.close()

    for a, identity in enumerate(identities):
        key = log.run("key", lambda: request_key(identity))
        if key is None:
            continue
        for d, doc in enumerate(spec.documents):
            if message_ids[d] is None:
                continue
            allowed = expected[d][a]
            log.run("read", lambda: protocol.client_read(
                        deployment.chain, deployment.store, message_ids[d], key),
                    lambda results: read_matches(allowed, doc.payload, results))
    result.timed_s += time.perf_counter() - timed_start
    log.run("verify", deployment.chain.verify, bool)


def run_exchange(seed: int, seconds: float, tracer: Optional[spans.Tracer]) -> Result:
    pin_to_one_cpu()
    result = Result()
    spec = generate_exchange(seed)
    expected = access_oracle(spec)
    pass_seeds = random.Random(f"exchange/passes/{seed}")
    uninstall = spans.install(tracer) if tracer else None
    deadline = time.perf_counter() + seconds
    while not result.setup_s or time.perf_counter() < deadline:
        exchange_pass(spec, expected, pass_seeds.getrandbits(32), result)
    if uninstall:
        uninstall()
    result.ops_completed = count_client_ops(result.log)
    result.peak_rss_mb = peak_rss_mb()
    return result


# --- serve ---------------------------------------------------------------------

SERVE_ROUNDS = 3
SERVE_ACTORS = 8
STORES_PER_SESSION = 10
SERVE_LEAVES = (8, 32)
SERVE_SLICES = (1, 3)
SERVE_PAYLOAD = (1024, 65536)
SERVE_TENANT = "tenant_acme"
SERVE_AUDIT = "audit"
HOST = "127.0.0.1"
READY_TIMEOUT_S = 60.0


def serve_stores(seed: int, client: int):
    """Endless, seeded stream of (actor index, slices) for one client thread."""
    rng = random.Random(f"serve/{seed}/client/{client}")
    while True:
        slices = []
        for n in range(rng.randint(*SERVE_SLICES)):
            policy = or_heavy_policy(rng, SERVE_TENANT, rng.randint(*SERVE_LEAVES),
                                     ROLES, always=SERVE_AUDIT)
            payload = rng.randbytes(rng.randint(*SERVE_PAYLOAD))
            slices.append((f"slice{n}", policy, payload))
        yield rng.randrange(SERVE_ACTORS), slices


def free_ports(count: int) -> list[int]:
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind((HOST, 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def digest_slices(slices) -> list[tuple[str, bytes]]:
    """(label, SHA-256 of the plaintext) for each submitted slice."""
    return [(label, hashlib.sha256(data).digest()) for label, _, data in slices]


def digest_results(results) -> list[tuple[str, Optional[bytes]]]:
    """The same for what a read returned; None for an unreadable slice."""
    return [(label, None if body is None else hashlib.sha256(body).digest())
            for label, body in results]


def store_client(seed: int, deadline: float, ports: dict[str, int],
                 servers: dict[str, protocol.PeerIdentity],
                 actors: list[protocol.Identity], log: OpLog, acks: list) -> None:
    """The one ledger writer: SDM sessions of a few stores each, back to back.

    Stores come from this thread alone because ``Chain.submit`` and
    ``seal_block`` take no lock: concurrent stores fail now and then with
    ``BadNonce`` or leave a chain that no longer verifies.
    """
    stream = serve_stores(seed, 0)
    while time.perf_counter() < deadline:
        actor_index, slices = next(stream)
        sdm = log.run("connect", lambda: protocol.ServiceClient(
            actors[actor_index], servers["sdm"],
            protocol.connect_tcp(HOST, ports["sdm"])))
        if sdm is None:
            continue
        try:
            for n in range(STORES_PER_SESSION):
                if n:
                    _, slices = next(stream)
                if time.perf_counter() >= deadline:
                    break
                stored = log.run("store", lambda: sdm.store(slices))
                if stored is not None:
                    acks.append((stored[0], digest_slices(slices)))
        finally:
            sdm.close()


def key_client(seed: int, deadline: float, ports: dict[str, int],
               servers: dict[str, protocol.PeerIdentity],
               actors: list[protocol.Identity], certified: list[frozenset[str]],
               log: OpLog) -> None:
    """Key requests beside the writer, each on its own SKM session.

    The SKM only reads the chain and the store, so this client contends for
    the server without writing to the ledger.
    """
    rng = random.Random(f"serve/{seed}/keys")
    while time.perf_counter() < deadline:
        actor_index = rng.randrange(SERVE_ACTORS)
        actor = actors[actor_index]

        def request_key():
            skm = protocol.ServiceClient(actor, servers["skm"],
                                         protocol.connect_tcp(HOST, ports["skm"]))
            try:
                return skm.request_key()
            finally:
                skm.close()
        log.run("key", request_key,
                lambda key: (key.holder == actor.address
                             and key.attributes == certified[actor_index]))


def wait_ready(proc: subprocess.Popen, stderr_path: Path) -> None:
    limit = time.monotonic() + READY_TIMEOUT_S
    while "serving;" not in stderr_path.read_text():
        if proc.poll() is not None:
            raise RuntimeError(f"cake serve exited early:\n{stderr_path.read_text()}")
        if time.monotonic() > limit:
            raise RuntimeError("cake serve did not become ready")
        time.sleep(0.005)


def cake(home: Path, *args: str) -> int:
    """Run one ``cake`` command in this process with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["--home", str(home), "--format", "json", *args])


def serve_round(seed: int, round_index: int, seconds: float,
                tracer: Optional[spans.Tracer], result: Result) -> None:
    log = result.log
    home_dir = WORK / f"serve-home-{round_index}"
    shutil.rmtree(home_dir, ignore_errors=True)
    report_path = WORK / f"serve-{round_index}.json"
    stderr_path = WORK / f"serve-{round_index}.stderr"
    report_path.unlink(missing_ok=True)
    rng = random.Random(f"serve/{seed}/home/{round_index}")
    uninstall = spans.install(tracer) if tracer else None
    proc = None
    try:
        start = time.perf_counter()
        home = cli.Home(home_dir)
        with contextlib.redirect_stderr(io.StringIO()):
            home.ensure_provisioned()
        actors = [protocol.Identity.generate(rng) for _ in range(SERVE_ACTORS)]
        auditor = protocol.Identity.generate(rng)
        for i, actor in enumerate(actors):
            home.save_identity(f"actor{i}", actor)
        home.save_identity("auditor", auditor)
        deployment = home.open()
        certified = [frozenset(map(policy_mod.normalize_attribute,
                                   [SERVE_TENANT, *rng.sample(ROLES, 2)]))
                     for _ in actors]
        ud = log.run("connect", lambda: deployment.connect_ud(deployment.certifier, rng))
        if ud is not None:
            for actor, attributes in zip(actors, certified):
                log.run("certify", lambda: ud.certify(actor.address, attributes))
            log.run("certify", lambda: ud.certify(
                auditor.address, [SERVE_TENANT, SERVE_AUDIT]))
            ud.close()
        home.save_chain(deployment.chain)

        ports = dict(zip(("sdm", "ud", "skm"), free_ports(3)))
        with stderr_path.open("w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py"), str(report_path),
                 "1" if tracer else "0", "--", "--home", str(home_dir), "serve",
                 "--host", HOST, "--sdm-port", str(ports["sdm"]),
                 "--ud-port", str(ports["ud"]), "--skm-port", str(ports["skm"])],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr)
        wait_ready(proc, stderr_path)
        servers = {"sdm": deployment.sdm.public(), "skm": deployment.skm.public()}
        acks: list[tuple[bytes, list[tuple[str, bytes]]]] = []
        # Warm-up: one store on one session before the clock starts.
        warm = log.run("connect", lambda: protocol.ServiceClient(
            actors[0], servers["sdm"], protocol.connect_tcp(HOST, ports["sdm"])))
        if warm is not None:
            warm_slices = [("warm", f"({SERVE_TENANT} and {SERVE_AUDIT})", b"warm-up")]
            stored = log.run("warmup", lambda: warm.store(warm_slices))
            if stored is not None:
                acks.append((stored[0], digest_slices(warm_slices)))
            warm.close()
        timed_start = time.perf_counter()
        result.setup_s.append(timed_start - start)

        deadline = timed_start + seconds
        logs = [OpLog(), OpLog()]
        threads = [
            threading.Thread(target=store_client, args=(
                seed, deadline, ports, servers, actors, logs[0], acks)),
            threading.Thread(target=key_client, args=(
                seed, deadline, ports, servers, actors, certified, logs[1])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.timed_s += time.perf_counter() - timed_start
        for client_log in logs:
            log.merge(client_log)
            result.ops_completed += count_client_ops(client_log)

        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=READY_TIMEOUT_S)
        report = json.loads(report_path.read_text())
        log.check(report["rc"] == 0)
        result.peak_rss_mb = max(result.peak_rss_mb, report["peak_rss_mb"])
        if report["trace"] is not None:
            result.server_trace = spans.merge_summaries(
                [s for s in (result.server_trace, report["trace"]) if s])

        verify_start = time.perf_counter()
        log.run("verify", lambda: cake(home_dir, "ledger", "verify"),
                lambda rc: rc == 0)
        result.verify_s.append(time.perf_counter() - verify_start)
    finally:
        if uninstall:
            uninstall()
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    # Every acknowledged message resolves to what its client submitted.
    reader = cli.Home(home_dir).open()

    def auditor_key():
        skm = reader.connect_skm(auditor)
        try:
            return skm.request_key()
        finally:
            skm.close()

    key = log.run("readback", auditor_key)
    for message_id, digests in acks if key is not None else ():
        log.run("readback", lambda: protocol.client_read(
                    reader.chain, reader.store, message_id, key),
                lambda results: digest_results(results) == digests)
    shutil.rmtree(home_dir, ignore_errors=True)


def run_serve(seed: int, seconds: float, tracer: Optional[spans.Tracer]) -> Result:
    result = Result()
    WORK.mkdir(exist_ok=True)
    # A wedged server must fail the client's operation, not hang the run.
    socket.setdefaulttimeout(READY_TIMEOUT_S)
    for round_index in range(SERVE_ROUNDS):
        serve_round(seed, round_index, seconds / SERVE_ROUNDS, tracer, result)
    return result


WORKLOADS: dict[str, Callable[[int, float, Optional[spans.Tracer]], Result]] = {
    "brie": run_brie,
    "exchange": run_exchange,
    "serve": run_serve,
}
