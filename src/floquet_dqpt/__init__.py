"""Floquet dynamical-phase-transition toolkit for a harmonically driven chain.

Modules
-------
model     : drive parameters, normal-form Bloch field, point guard, band data
dynamics  : closed-form SU(2) propagator, brute-force oracle, return amplitudes
dqpt      : rate function, Fisher zeros, critical condition
geometry  : Pancharatnam phases, dynamical winding number, tomography route
topology  : chiral time frames and the closed-form (W0, Wpi) invariants
lattice   : open-chain BdG Floquet spectrum with pi edge-mode flags
cli       : dataset-producing command-line front end (`fdqpt`)
"""

from .model import ModelParams, BlochComponents, bloch_components
from .dynamics import (ReturnAmplitude, propagator_analytic, propagator_oracle,
                       return_amplitude, return_probability)
from .dqpt import (CriticalSet, FisherLine, dqpt_condition, fisher_tau,
                   fisher_lines, rate_function)
from .geometry import (total_phase, dynamical_phase, geometric_phase,
                       exact_winding, winding_number, bloch_expectations,
                       geometric_phase_from_tomography)
from .topology import ChiralInvariants, chiral_winding_numbers
from .lattice import FloquetSpectrum, obc_floquet_spectrum

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
