"""Closed-loop, reference-checked benchmark of the bosonic-saddle CLI (see run.py)."""
