"""offo's end-to-end benchmark and its traced per-layer split; see ``run.py``."""
