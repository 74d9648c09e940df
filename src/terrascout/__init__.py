"""Cooperative multi-UAV terrain monitoring simulator and training engine."""

__version__ = "0.1.0"
