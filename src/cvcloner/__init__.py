"""Gaussian cloning machines for coherent states.

Simulates asymmetric 1->2 and symmetric N->M optical cloners as Bogoliubov
transforms, extracts clone fidelities and added-noise figures, and
cross-validates everything against closed forms and an independent
truncated-Fock-space oracle.

The top level holds what a caller needs to build a machine and read its
clones; every other name is imported from its submodule (``gaussian``,
``elements``, ``circuits``, ``analysis``, ``fock``, ``verification``).
"""

from .analysis import CloneReport, clone_report
from .circuits import AsymSpec, ClonerSpec, CloningMachine, SymSpec, build_cloner

__all__ = [
    "AsymSpec",
    "CloneReport",
    "ClonerSpec",
    "CloningMachine",
    "SymSpec",
    "build_cloner",
    "clone_report",
]

__version__ = "0.1.0"
