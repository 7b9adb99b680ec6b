"""Gaussian cloning machines for coherent states.

Simulates asymmetric 1->2 and symmetric N->M optical cloners as Bogoliubov
transforms, extracts clone fidelities and added-noise figures, and
cross-validates everything against closed forms and an independent
truncated-Fock-space oracle.

The top level holds what a caller needs to build machines and read their
clones: ``build_cloners(specs)`` returns one ``MachineStack`` (a machine
is a stack of one), and ``read_clones(stack, xis)`` one ``Readout`` of
arrays.  Every other name is imported from its submodule (``gaussian``,
``elements``, ``circuits``, ``analysis``, ``fock``, ``verification``).
"""

from .analysis import Readout, read_clones
from .circuits import AsymSpec, ClonerSpec, MachineStack, SymSpec, build_cloners

__all__ = [
    "AsymSpec",
    "ClonerSpec",
    "MachineStack",
    "Readout",
    "SymSpec",
    "build_cloners",
    "read_clones",
]

__version__ = "0.1.0"
