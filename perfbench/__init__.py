"""Extraction benchmark: seeded inputs, closed-loop jobs, traced layers."""
