"""Desk-scale audio-visual active speaker detection.

Cross-modal attention fusion feeds two decoupled interaction streams (one
over speakers within a frame, one over frames per speaker) that exchange
information through mutual cross-attention; a separately trained
voice-confidence branch downgrades confident predictions on frames with
weak audio evidence.  Ships with a seeded synthetic scenario generator,
a from-scratch reverse-mode tensor engine, training loop, and ranking
evaluators.
"""

__version__ = "0.1.0"
