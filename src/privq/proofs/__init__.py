"""Non-interactive zero-knowledge proofs: linear-relation discrete-log
proofs, Anytrust range proofs, and the verifiable-shuffle argument, with
the Fiat-Shamir transcript and the batch check they share."""
