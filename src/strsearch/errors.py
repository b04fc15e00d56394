"""Exception types raised across the library."""


class StrSearchError(Exception):
    """Base class for all library-specific errors."""


class SentinelCollision(StrSearchError):
    """Input contains the byte reserved as the index terminator."""


class MissingSentinel(StrSearchError):
    """An index build was attempted on text without a terminal sentinel."""


class AlreadyFinalized(StrSearchError):
    """finalize() was called twice on the same index."""


class NotFinalized(StrSearchError):
    """A query was attempted on an index that has not been finalized."""


class TrieCapExceeded(StrSearchError):
    """Text body is longer than the suffix trie's fixed cap (``suffix_trie.BODY_CAP``)."""


class InvalidWeights(StrSearchError):
    """Alphabet weights are malformed (wrong count, negative, or sum != 1)."""


class MalformedFasta(StrSearchError):
    """Input claimed to be FASTA has no '>' header record."""


class IllegalBase(StrSearchError):
    """A sequence byte outside the accepted alphabet was found in strict mode."""


class BadRange(StrSearchError):
    """A sampling range is empty or out of bounds."""


class InvalidConfig(StrSearchError):
    """A benchmark configuration violates its invariants."""


class ResultMismatch(StrSearchError):
    """Two algorithms disagreed on a match set during a benchmark run."""


class IoFailure(StrSearchError):
    """Reading or writing benchmark output failed."""
