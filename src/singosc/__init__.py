"""singosc: exact symmetry algebra and spectra of double singular oscillators.

The heavy lifting lives in the submodules:

- ``singosc.opalg``  exact operator engine and identity verification
- ``singosc.qalg``   structure functions, unirreps, algebraic spectrum
- ``singosc.radial`` closed-form levels, wavefunctions, FD eigensolver
- ``singosc.levels`` degeneracy tables and oscillator-limit counting
- ``singosc.exact``  exact rational and biquadratic arithmetic for the three above
- ``singosc.cli``    command-line front end

Importing ``singosc`` loads only ``opalg``, which is pure Python.  ``radial``
loads numpy (scipy on its first FD solve or quadrature) when it is first
imported; ``qalg``, ``levels`` and ``exact`` use the standard library only.
"""

from .opalg import build_classical, build_quantum, verify_q3, verify_qp3

__version__ = "0.1.0"

__all__ = ["build_classical", "build_quantum", "verify_q3", "verify_qp3",
           "__version__"]
