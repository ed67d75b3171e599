"""Confidential data sharing among semi-trusting parties.

Data owners submit document slices with attribute policies; the data
manager encrypts each slice under its policy, stores the ciphertext
container in a content-addressed store, and notarizes its locator on a
hash-chained ledger. Certified readers obtain attribute-bound keys from the
key manager and can decrypt exactly the slices whose policies their
attributes satisfy.

Modules: ``policy`` (formula parsing; the parsed tree is the access tree),
``sss`` (threshold secret sharing), ``abe`` (policy-bound hybrid
encryption), ``codec`` (declared binary records), ``cas``
(content-addressed storage), ``ledger`` (simulated chain and registry
contracts), ``protocol`` (services, handshake, client), ``scenario``
(end-to-end harness), ``cli`` (the ``cake`` command).
"""

__version__ = "0.1.0"
