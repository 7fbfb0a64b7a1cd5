"""Movement-time model fitting, comparison, and throughput analysis for
3D teleportation pointing, with a headless task simulator for ground-truth
validation.

Import names from their submodules (``telefitts.trials``, ``models``,
``regression``, ``comparison``, ``throughput``, ``sim``); the package itself
exports only ``__version__``.
"""

__version__ = "0.1.0"
