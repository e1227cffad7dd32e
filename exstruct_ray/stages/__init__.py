from .actor import ExtractActor
from .pipeline import build_extraction_pipeline

__all__ = [
    "ExtractActor",
    "build_extraction_pipeline",
]
