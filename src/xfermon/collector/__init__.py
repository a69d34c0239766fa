"""Ingest service: framing, persistence, and the query front."""
from .framing import HEADER_BYTES, MAX_FRAME_BYTES, FrameDecoder, FrameError, encode_frame
from .service import CollectorConfig, CollectorService, IngestStats, dataset_rows
from .storage import Record, SegmentStore

__all__ = [
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "FrameDecoder",
    "FrameError",
    "encode_frame",
    "CollectorConfig",
    "CollectorService",
    "IngestStats",
    "dataset_rows",
    "Record",
    "SegmentStore",
]
