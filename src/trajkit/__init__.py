"""trajkit: dense trajectory-field motion toolkit.

Grid-anchored offset encoding of point tracks, a spatiotemporally
regularized trajectory VAE, rectified-flow generation of future motion
with boundary hints and on-policy rollout fine-tuning, and reference-free
flow diagnostics — all CPU-sized, with synthetic scene generators that
double as test oracles.
"""

__version__ = "0.1.0"
