"""singosc: exact symmetry algebra and spectra of double singular oscillators.

The heavy lifting lives in the submodules:

- ``singosc.opalg``  exact operator engine and identity verification
- ``singosc.qalg``   structure functions, unirreps, algebraic spectrum
- ``singosc.radial`` closed-form levels, wavefunctions, FD eigensolver
- ``singosc.levels`` degeneracy tables and oscillator-limit counting
- ``singosc.exact``  exact rational and biquadratic arithmetic for the three above
- ``singosc.cli``    command-line front end

The API of the exact engine is ``singosc.opalg`` (``verify_q3``,
``verify_qp3``, ``build_quantum``, ``build_classical``, ...).  Importing
``singosc`` loads none of the submodules: each is loaded when first imported.
``opalg``, ``qalg``, ``levels`` and ``exact`` are pure Python; ``radial``
loads numpy when it is first imported, and scipy on its first FD solve or
quadrature.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
