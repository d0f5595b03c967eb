"""P3: the end-to-end, per-layer benchmark (entry point ``run.py``)."""
