"""Defect maps, steady-state transport and a lattice oracle for critical chains.

Modules
-------
fock      truncated chiral Fock spaces with exact arithmetic
virasoro  Virasoro generators from mode bilinears, central charge probes
defect    Bogoliubov defect maps and their consistency checks
ness      symbolic field dynamics, scattering map and steady-state averages
su2k      current-algebra rotation of the u(1) stress tensor, level-k current
lattice   free-fermion partitioning protocol, closed-form transmission, Landauer comparison
cli       command line front end
"""

__version__ = "0.1.0"

from . import defect, fock, lattice, ness, su2k, virasoro  # noqa: F401
