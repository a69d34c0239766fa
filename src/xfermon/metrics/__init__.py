"""Domain types and the canonical metric catalog."""
from .catalog import (
    FULL_KEYS,
    FULL_NAMES,
    MINIMAL_KEYS,
    MINIMAL_NAMES,
    Layer,
    MetricKey,
    Profile,
    Side,
    catalog,
    catalog_names,
)
from .envelope import (
    PAYLOAD_LIMIT_BYTES,
    EnvelopeDecodeError,
    MetricEnvelope,
    Violation,
    decode_envelope,
    encode_envelope,
    validate_envelope,
)

__all__ = [
    "FULL_KEYS",
    "FULL_NAMES",
    "MINIMAL_KEYS",
    "MINIMAL_NAMES",
    "Layer",
    "MetricKey",
    "Profile",
    "Side",
    "catalog",
    "catalog_names",
    "PAYLOAD_LIMIT_BYTES",
    "EnvelopeDecodeError",
    "MetricEnvelope",
    "Violation",
    "decode_envelope",
    "encode_envelope",
    "validate_envelope",
]
