"""Flow-matching audio toolkit: codec DSP, losses, training, sampling, metrics.

Submodules group the math by pipeline stage:

- ``dsp``          waveform I/O, STFT/iSTFT codec, softplus head, mel filters
- ``losses``       spectral, hinge, contrastive, codec total, CFG combine
- ``net``          small velocity-field MLP with reverse- and forward-mode AD
- ``flow``         interpolation paths, FM and interval-averaged objectives
- ``solvers``      fixed-step Euler and adaptive Dormand-Prince samplers
- ``distill``      few-step student training with an adversarial head
- ``transformer``  multi-stream joint-attention blocks with rotary positions
- ``metrics``      SI-SDR, spectral distances, Frechet, KL, retrieval
- ``fileio``       atomic artifact writes
- ``host``         the CPUs this process may run on, and the second thread
                   (``pair``) of the guidance and spectral paths
- ``toy``          tiny synthetic datasets for end-to-end checks
- ``cli``          the ``flowfx`` command-line entry point

Names live in their submodules; nothing is re-exported here.  ``cli`` and
``transformer`` are not imported here: ``python -m flowfx.cli`` runs the
command line once, as ``__main__``, and no command loads the transformer.
``from flowfx import cli`` still works.  Nothing here imports scipy: WAV
I/O is a small RIFF reader and writer in ``dsp``.
"""

from . import distill, dsp, flow, losses, metrics, net, solvers, toy

__version__ = "0.1.0"
