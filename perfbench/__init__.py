"""Layered serving benchmark for the ``repro serve`` daemon (see README.md)."""
