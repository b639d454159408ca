"""Reflective pulse-oximetry SpO2 estimation with learned signal-quality pruning.

The package turns paired wrist and fingertip pulse-oximeter traces into
reliability-pruned oxygen saturation readings:

* :mod:`pulseox.signal_io` parses and time-regularizes raw streams,
* :mod:`pulseox.spo2` implements the ratio-of-ratios algorithms,
* :mod:`pulseox.features` computes and selects window features,
* :mod:`pulseox.gbdt` trains the boosted-tree reliability classifier,
* :mod:`pulseox.pipeline` orchestrates labeling, cross-validation, pruning,
* :mod:`pulseox.metrics` scores precision, RMSE, and silent intervals,
* :mod:`pulseox.synth` generates ground-truth synthetic traces for testing,
* :mod:`pulseox.schema` reads and checks every input document,
* :mod:`pulseox.cli` exposes everything as subcommands.
"""

__version__ = "0.1.0"
