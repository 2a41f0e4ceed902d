"""Floquet dynamical-phase-transition toolkit for a harmonically driven chain.

Modules
-------
model     : drive parameters, normal-form field, guards, band data, limits
dynamics  : closed-form SU(2) propagator, brute-force oracle, return amplitudes
dqpt      : rate function, Fisher zeros, critical condition
geometry  : Pancharatnam phases, dynamical winding number, tomography kernels
topology  : chiral time frames and the closed-form (W0, Wpi) invariants
lattice   : open-chain BdG Floquet spectrum with pi edge-mode flags
cli       : dataset-producing command-line front end (`fdqpt`)
_cells    : the dataset writer's "%.17g" cells and rows
_record   : the frozen record type of the parameters and results

The re-exports below, and the modules themselves, are imported on first
access (PEP 562), so that a command loads only the modules it runs.
"""

import importlib

from . import _lazy  # without numpy, fail here as `import numpy` does
from . import _record  # every module's types; bound as an eager import would

# Each re-exported name and the module that defines it.
_SOURCE = {
    "ModelParams": "model",
    **dict.fromkeys(("ReturnAmplitude", "propagator_analytic",
                     "propagator_oracle", "return_amplitude"), "dynamics"),
    **dict.fromkeys(("CriticalSet", "FisherLine", "dqpt_condition",
                     "fisher_lines", "rate_function"), "dqpt"),
    **dict.fromkeys(("geometric_phase", "exact_winding", "winding_number"),
                    "geometry"),
    **dict.fromkeys(("ChiralInvariants", "chiral_winding_numbers"),
                    "topology"),
    **dict.fromkeys(("FloquetSpectrum", "obc_floquet_spectrum"), "lattice"),
}
_MODULES = {*_SOURCE.values(), "errors"}

__all__ = sorted({*_SOURCE, *_MODULES})

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SOURCE.get(name, name)}", __name__)
    value = module if name in _MODULES else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    # what an eager import would bind: no helper of the lazy one
    return sorted({*globals(), *__all__} - {
        "importlib", "_SOURCE", "_MODULES", "__getattr__", "__dir__"})
