"""Non-interactive zero-knowledge proofs: linear-relation discrete-log
proofs, Anytrust range proofs, and the verifiable-shuffle argument."""

from .linear import LinearStatement, LinearRelationProof, prove_linear, verify_linear
from .rangeproof import (
    RangeSignatures,
    RangeProof,
    range_setup,
    prove_range,
    verify_range,
    prove_bounded,
    verify_bounded,
)
from .shuffle import ShuffleProof, shuffle_and_prove, verify_shuffle
from .signatures import sign, verify_signature

__all__ = [
    "LinearStatement",
    "LinearRelationProof",
    "prove_linear",
    "verify_linear",
    "RangeSignatures",
    "RangeProof",
    "range_setup",
    "prove_range",
    "verify_range",
    "prove_bounded",
    "verify_bounded",
    "ShuffleProof",
    "shuffle_and_prove",
    "verify_shuffle",
    "sign",
    "verify_signature",
]
