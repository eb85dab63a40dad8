"""Flow-matching audio toolkit: codec DSP, losses, training, sampling, metrics.

Submodules group the math by pipeline stage:

- ``dsp``          waveform I/O, STFT/iSTFT codec, softplus head, mel filters
- ``losses``       spectral, GAN, feature-matching, contrastive, CFG combine
- ``net``          small velocity-field MLP with reverse- and forward-mode AD
- ``flow``         interpolation paths, FM and interval-averaged objectives
- ``solvers``      fixed-step Euler and adaptive Dormand-Prince samplers
- ``distill``      few-step student training with an adversarial head
- ``transformer``  joint-attention blocks with rotary positions
- ``metrics``      SI-SDR, spectral distances, Frechet, KL, retrieval
- ``fileio``       atomic artifact writes
- ``toy``          tiny synthetic datasets for end-to-end checks
- ``cli``          the ``flowfx`` command-line entry point

The most commonly used names are re-exported here; everything else is a
deliberate import away in its submodule.  ``cli`` is not imported here, so
``python -m flowfx.cli`` runs it once, as ``__main__``; ``from flowfx import
cli`` still works.
"""

from . import distill, dsp, flow, losses, metrics, net, solvers, toy, transformer
from .dsp import AudioBuffer, StftConfig, istft, read_wav, stft, synth_signal, write_wav
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    FileFormatError,
    SolverError,
)
from .flow import CfgSpec, PathSample, TrScheduler, fm_loss, meanflow_loss, sample_path
from .net import (
    ModelConfig,
    VelocityModel,
    forward,
    init_model,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
)
from .solvers import SampleTrace, SolverConfig, dopri5_sample, euler_sample

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "CfgSpec",
    "ConfigError",
    "DivergenceError",
    "DomainError",
    "FileFormatError",
    "ModelConfig",
    "PathSample",
    "SampleTrace",
    "SolverConfig",
    "SolverError",
    "StftConfig",
    "TrScheduler",
    "VelocityModel",
    "distill",
    "dopri5_sample",
    "dsp",
    "euler_sample",
    "flow",
    "fm_loss",
    "forward",
    "init_model",
    "init_optimizer",
    "istft",
    "load_checkpoint",
    "losses",
    "meanflow_loss",
    "metrics",
    "net",
    "read_wav",
    "sample_path",
    "save_checkpoint",
    "solvers",
    "stft",
    "synth_signal",
    "toy",
    "transformer",
    "write_wav",
    "__version__",
]
