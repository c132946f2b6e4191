"""Polygon triangulations, sylvester classes, restricted flips and signings."""

__version__ = "0.1.0"
