"""Video snapshot compressive imaging reconstruction via fixed-point iteration maps."""

__version__ = "0.1.0"
