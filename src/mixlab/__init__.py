"""mixlab: a spectral laboratory for advection-diffusion lower bounds on the 2-torus.

Three regimes, each with explicit, checkable lower-bound certificates:

* inviscid shear transport with a polynomial H^{-1} floor,
* diffusive shear transport with an exponential L^2 floor and a uniform
  mixing-scale floor,
* fast time-periodic flows with an exponential L^2 floor above an explicit
  frequency threshold.
"""

from .spectral import (
    FieldError,
    GridError,
    HarmonicTerm,
    Lattice,
    ModeProfile,
    SpectralField2D,
    field_from_json,
    field_from_terms,
    field_to_json,
    grid_sample,
    hneg1_norm,
    l2_norm,
    low_block_energy,
    mixing_scale,
    synthesize,
    x_mode,
)
from .flows import (
    FlowSpec,
    FlowSpecError,
    FlowTerm,
    ShearSpec,
    ShearTerm,
    SpectralVelocity,
    flow_from_json,
    flow_to_json,
    phase_integral,
    preset_flow,
    preset_shear,
    time_average,
)
from .inviscid import (
    InviscidCertificate,
    check_inviscid_bound,
    evolve_inviscid,
    inviscid_certificate,
)
from .shear import (
    FieldTrajectory,
    dissipation_report,
    evolve_shear,
)
from .certificates import (
    C2Certificate,
    CertificateError,
    MixCertificate,
    c2_certificate,
    check_exponential_bound,
    check_mixing_bound,
    check_upper_envelope,
    mixing_certificate,
    mode_mk,
    nu_scaling_report,
    sharpness_family,
)
from .averaging import (
    AveragedOperator,
    DetectingSpectrum,
    FastCertificate,
    averaged_operator,
    check_fast_bound,
    damping_constant,
    detecting_spectrum,
    evolve_2d,
    fast_certificate,
    observable_series,
    sylvester_constant,
)
from .reports import BoundReport
from .harness import Scenario, ScenarioReport, corpus_run, run

__version__ = "0.1.0"
