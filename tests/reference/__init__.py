"""Slow reference implementations the tests compare the shipped,
vectorized code against.  Nothing under ``src/`` imports this package."""
