"""Text-to-table pipeline toolkit: tuple extraction, integration, evaluation,
and a seeded synthetic commentary generator with an exact oracle extractor.

The API lives in the submodules (``from t3table import synth``); the package
root re-exports nothing, so importing one submodule loads only what it needs.
"""
