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

Names live in their submodules, and this package imports none of them:
``import flowfx`` loads only this file, and ``from flowfx import cli`` (or
any other submodule) loads what that submodule needs.  So ``python -m
flowfx.cli`` runs the command line once, as ``__main__``, and no command
loads the transformer.  Nothing in flowfx imports scipy: WAV I/O is a
small RIFF reader and writer in ``dsp``.
"""

__version__ = "0.1.0"
