"""Shared exception types for the privq package."""


class PrivqError(Exception):
    """Base class for all package errors."""


class OutOfTableRange(PrivqError):
    """A group point has no entry in the discrete-log table."""


class PairingUnavailable(PrivqError):
    """The active curve profile does not support pairings."""


class MessageTooLarge(PrivqError):
    """Plaintext magnitude exceeds the decodable message bound."""


class EmptyMemberList(PrivqError):
    """A collective key needs at least one member."""


class MalformedProof(PrivqError):
    """A wire record (a proof, a ciphertext, a point, scalar or target-group
    element, a message payload or a block) could not be decoded or has the
    wrong shape."""


class OutOfRange(PrivqError):
    """Value lies outside the declared proof range."""


class EmptyList(PrivqError):
    """An operation requires a non-empty list."""


class DimensionMismatch(PrivqError):
    """An aggregation input is not the operation's vector plus the count."""


class UnexpectedInput(PrivqError):
    """An input from a node that the collecting step does not await."""


class InvalidPrivacyParams(PrivqError):
    """Differential-privacy parameters are out of their valid domain."""


class NoiseExhausted(PrivqError):
    """Not enough noise ciphertexts for the result dimension."""


class ValueOutOfBounds(PrivqError):
    """A record value violates the query's declared bounds."""


class ArityMismatch(PrivqError):
    """Record tuples do not match the operation's attribute arity."""


class ZeroCount(PrivqError):
    """A ratio-based decode received an aggregate with zero count."""


class LabelNotBinary(PrivqError):
    """Logistic-regression labels must be 0 or 1."""


class SingularSystem(PrivqError):
    """The normal-equation system is not invertible."""


class Divergence(PrivqError):
    """Gradient descent failed to converge within its guard."""


class CallbackFailure(PrivqError):
    """A query callback raised or returned an unusable result."""


class InvalidArgs(PrivqError):
    """Arguments are outside the operation's domain."""


class InvalidPolicy(PrivqError):
    """A verification policy violates its invariants."""


class InsufficientSignatures(PrivqError):
    """A block gathered fewer than f_h verifying-node signatures."""


class BlockNotFound(PrivqError):
    """No ledger block exists for the requested query."""


class BrokenChain(PrivqError):
    """Ledger hash links or block contents fail verification."""


class MalformedQuery(PrivqError):
    """A query object violates its invariants."""


class QuerySyntaxError(PrivqError):
    """Query text failed to parse; carries line/column position."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ConfigError(PrivqError):
    """An experiment or topology configuration is invalid."""


class CnUnavailable(PrivqError):
    """A computing node became unresponsive mid-query; query aborted."""


class DecodeFailure(PrivqError):
    """Query result could not be decoded."""


class TransportClosed(PrivqError):
    """Message transport was closed while a node was still running."""
