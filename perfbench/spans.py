"""Per-layer tracing of cake, installed from outside by patching.

Each layer boundary (a module function or class method of ``src/cake``) is
wrapped so that every call records a span: name, start, end and the span
that was open on the same thread when it began. Spans stay in memory and
are summarized, and optionally written out, when the run ends. A span's
self time is its duration minus the durations of its direct children;
children run on the parent's thread and never overlap each other, so that
sum is exactly the part of the interval they cover.

Nothing under ``src/`` knows about this module: :func:`install` swaps the
attributes in place and returns a function that puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

# A span record: [name, start_ns, end_ns, parent record or None, child_ns].
Span = list

Hook = Callable[["Tracer", tuple, Any], None]


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        # (policy text, frozenset of key attributes) -> decrypt_slice calls
        self.decrypts: Counter[tuple[str, frozenset]] = Counter()
        self._lock = threading.Lock()  # hooks run on concurrent session threads
        self._local = threading.local()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, before: Optional[Hook] = None,
             after: Optional[Hook] = None) -> Callable:
        """Return ``fn`` recording one span per outermost call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return fn(*args, **kwargs)  # recursion stays inside one span
            if before is not None:
                before(tracer, args, None)
            record = [name, tracer.clock(), 0, parent, 0]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = tracer.clock()
                stack.pop()
                if parent is not None:
                    parent[4] += record[2] - record[1]
                tracer.spans.append(record)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Additive totals: calls and self time per span name, calls per
        (parent, child) name pair, and the counters the hooks kept."""
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        pairs: Counter[str] = Counter()
        for name, start, end, parent, child_ns in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child_ns
            if parent is not None:
                pairs[f"{parent[0]}>{name}"] += 1
        counters = Counter(self.counters)
        for (policy_text, attrs), n in self.decrypts.items():
            needed, unwrapped = unwrap_need(policy_text, attrs)
            counters["abe.shares_needed"] += n * needed
            counters["abe.shares_unwrapped"] += n * unwrapped
        return {"calls": dict(calls), "self_ns": dict(self_ns),
                "pairs": dict(pairs), "counters": dict(counters)}

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; ``trace`` is the id of its root span."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with path.open("w") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                root = parent
                while root is not None and root[3] is not None:
                    root = root[3]
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": ids.get(id(parent)) if parent is not None else None,
                    "trace": ids.get(id(root), i) if root is not None else i,
                }) + "\n")


def merge_summaries(summaries: Iterable[dict]) -> dict:
    merged: dict[str, Counter] = {"calls": Counter(), "self_ns": Counter(),
                                  "pairs": Counter(), "counters": Counter()}
    for summary in summaries:
        for key, counter in merged.items():
            counter.update(summary.get(key, {}))
    return {key: dict(counter) for key, counter in merged.items()}


def unwrap_need(policy_text: str, attrs: frozenset) -> tuple[int, int]:
    """(shares a minimal satisfying set needs, shares the key unwraps).

    ``decrypt_slice`` unwraps every share whose attribute the key holds; a
    minimal satisfying set needs the cheapest ``threshold`` children of
    each gate. An unsatisfiable policy needs none.
    """
    from cake import policy

    tree = policy.compile_policy(policy.parse_policy(policy_text))

    def need(node) -> Optional[int]:
        if isinstance(node, policy.TreeLeaf):
            return 1 if node.attribute in attrs else None
        costs = sorted(c for c in map(need, node.children) if c is not None)
        return sum(costs[:node.threshold]) if len(costs) >= node.threshold else None

    unwrapped = sum(leaf.attribute in attrs for leaf in policy.tree_leaves(tree))
    return need(tree) or 0, unwrapped


# --- hooks: counts measured where the work happens ---------------------------

def _count_put(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("cas.bytes_put", len(args[1]))


def _count_get(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("cas.bytes_get", len(result))


def _count_sealed(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("ledger.txs_sealed", len(result.transactions))


def _count_verified(tracer: Tracer, args: tuple, result: Any) -> None:
    chain = args[0]
    tracer.count("ledger.blocks_verified",
                 chain.height if result.ok else result.failed_height)


def _count_loaded(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("ledger.blocks_loaded", result.height)


def _note_decrypt(tracer: Tracer, args: tuple, result: Any) -> None:
    user_key, ct = args[0], args[1]
    key = (ct.policy_text, frozenset(user_key.attribute_keys))
    with tracer._lock:
        tracer.decrypts[key] += 1


# (module, attribute path, span name or None for "<module>.<path>", before, after)
BOUNDARIES: list[tuple[str, str, Optional[str], Optional[Hook], Optional[Hook]]] = [
    ("policy", "parse_policy", None, None, None),
    ("policy", "render_policy", None, None, None),
    ("policy", "compile_policy", None, None, None),
    ("sss", "share_tree", None, None, None),
    ("sss", "reconstruct_tree", None, None, None),
    ("abe", "encrypt_slice", None, None, None),
    ("abe", "decrypt_slice", None, _note_decrypt, None),
    ("abe", "attribute_wrap_key", None, None, None),
    ("abe", "header_hash", None, None, None),
    ("abe", "keygen", None, None, None),
    ("abe", "serialize_container", None, None, None),
    ("abe", "parse_container", None, None, None),
    ("cas", "BlobStore.put", None, None, _count_put),
    ("cas", "BlobStore.get", None, None, _count_get),
    ("cas", "parse_locator", None, None, None),
    ("ledger", "Chain.submit", None, None, None),
    ("ledger", "Chain.seal_block", None, None, _count_sealed),
    ("ledger", "Chain.message_get", None, None, None),
    ("ledger", "Chain.actor_get", None, None, None),
    ("ledger", "Chain.verify", None, None, _count_verified),
    ("ledger", "Chain.load", None, None, _count_loaded),
    ("protocol", "provision", None, None, None),
    ("protocol", "client_handshake", None, None, None),
    ("protocol", "Session.send", None, None, None),
    ("protocol", "Session.receive", None, None, None),
    ("protocol", "Service.serve_session", None, None, None),
    ("protocol", "ServiceClient.store", None, None, None),
    ("protocol", "ServiceClient.certify", None, None, None),
    ("protocol", "ServiceClient.request_key", None, None, None),
    ("protocol", "client_read", None, None, None),
    ("protocol", "MemoryTransport.recv_frame", "protocol.recv_frame", None, None),
    ("protocol", "SocketTransport.recv_frame", "protocol.recv_frame", None, None),
    ("scenario", "run_scenario", None, None, None),
    ("cli", "Home.open", None, None, None),
    ("cli", "Home.save_chain", None, None, None),
]

SPAN_NAMES = list(dict.fromkeys(name or f"{module}.{path}"
                                for module, path, name, _, _ in BOUNDARIES))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary in ``BOUNDARIES``; returns the undo function."""
    undo: list[tuple[Any, str, Any]] = []
    for module_name, path, name, before, after in BOUNDARIES:
        owner: Any = importlib.import_module(f"cake.{module_name}")
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        span_name = name or f"{module_name}.{path}"
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(
                tracer.wrap(span_name, original.__func__, before, after))
        else:
            wrapped = tracer.wrap(span_name, original, before, after)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
