"""Quantitative machinery: load generation, serving metrics, image gate.

Import from the submodules (``gates.image``, ``gates.loadgen``,
``gates.metrics``, ``gates.rng``): the package re-exports nothing, so a
loop process that needs the seeded RNG does not load numpy for the image
gate.
"""
