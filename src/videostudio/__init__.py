"""Multi-scene video generation from a one-line theme.

Three stages: a chat model drafts a scene-by-scene script, reference
images pin down recurring entities, and a latent diffusion loop turns
each scene row into a short clip with text, foreground, background,
scene and action conditioning plus a mid-sampling camera intervention.
Everything runs deterministically on CPU; the heavyweight perceptual
models are replaced by small frozen stand-ins so every contract stays
checkable end to end.
"""

__version__ = "0.1.0"
