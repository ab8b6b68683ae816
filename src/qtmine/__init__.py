"""Desk-scale literature mining with a masked-language-model transformer.

Its modules cover the full pipeline: corpus ingestion, byte-level BPE
tokenization, a from-scratch transformer encoder with an MLM head,
training, query-target conditioned scoring, analogy evaluation,
forward-chaining temporal ranking, and per-sentence highlighting by
query-target score.
"""

__version__ = "0.1.0"
