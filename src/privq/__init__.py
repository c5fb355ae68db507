"""privq: decentralized privacy-preserving statistical queries.

Additive-homomorphic ElGamal over elliptic-curve groups, collective
protocols over a node tree, zero-knowledge correctness and range proofs,
statistical/regression encodings, probabilistic proof verification, and an
auditable threshold-signed proof ledger, runnable as a simulated
multi-node system with a CLI.
"""

__version__ = "0.1.0"
