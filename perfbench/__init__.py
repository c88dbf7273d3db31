"""End-to-end, layer-by-layer serving benchmark (see ``run.py``)."""
