"""Workload generators: per-PE operation streams and allocation plans."""
