"""Acoustoelectric imaging simulator and reconstruction toolkit.

Simulates voltage channels induced by single-element (synthetic aperture) or
focused ultrasound transmissions over a 2D source field, reconstructs images
by pixel-based delay-and-sum or ray-line mapping, applies coherence-factor
weighting and effective-beam amplitude correction, and evaluates resolution,
sidelobe and SNR metrics.
"""

from .acquisition import (
    AcquisitionSpec,
    add_thermal_noise,
    differential_subtract,
    matched_filter,
)
from .coherence import (
    CoherenceMap,
    amplitude_correct,
    apply_weighting,
    coherence_factor,
    coherence_factor_pl,
    effective_beam_map,
    sa_frame,
)
from .core import (
    ArrayGeometry,
    Medium,
    PixelGrid,
    PulseSpec,
    SFieldGrid,
    compose_s_field,
    default_pixel_grid,
    wavelength,
)
from .forward import (
    ChannelDataSet,
    PressureModel,
    TransmitEvent,
    focused_sequence,
    pulse_waveform,
    simulate_channel,
    simulate_dataset,
    single_element_sequence,
    trace_length,
)
from .metrics import (
    MetricsReport,
    Rect,
    TargetSpec,
    evaluate_targets,
    image_snr,
    peak_pixel,
    peak_sidelobe_level,
    profile_fwhm,
)
from .reconstruct import (
    ApertureSamples,
    BeamformedImage,
    das_sa,
    envelope,
    fus_line_map,
    sub_aperture_size,
)
from .scenario import Scenario, load_scenario, save_scenario

__version__ = "0.1.0"
