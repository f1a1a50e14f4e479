"""End-to-end and per-layer benchmark of the extraction engine (see run.py)."""
