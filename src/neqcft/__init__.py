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

Start-up
--------
The submodules import numpy and sympy, which leave tens of thousands of
container objects alive.  The import runs with the cycle collector off and
then moves every object that exists at that point into the permanent
generation (``gc.freeze``), so neither the import, the later collections nor
the collections at interpreter exit walk that heap again.  The caller's gc
switch is restored afterwards.  Both effects are process-wide.  On a 2-core
box a fresh ``import neqcft.cli`` plus exit fell from 0.47 to 0.36 s (import
0.33 to 0.31 s), the exit of a command from about 0.10 to 0.01 s, and peak
RSS rose 0.2-0.3 MB.
"""

import gc

__version__ = "0.1.0"

_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    from . import defect, fock, lattice, ness, su2k, virasoro  # noqa: F401
finally:
    gc.freeze()
    if _gc_was_enabled:
        gc.enable()
