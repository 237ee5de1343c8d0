"""k-free integers along Beatty sequences: sieves, exponential sums, smoothing,
discrepancy, and certified fixed-point arithmetic underneath all of it."""

__version__ = "0.1.0"
