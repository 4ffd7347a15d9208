"""Landmark-based lexical access toolkit for Italian."""
