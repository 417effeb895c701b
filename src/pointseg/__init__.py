"""Point-supervised instance pseudo-label synthesis toolkit."""

__version__ = "0.1.0"
